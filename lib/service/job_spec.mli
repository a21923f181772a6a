(** Job specifications: the JSON body of [POST /jobs].

    {[
      {"problem": "tsp", "cities": 200, "gfun": "g = 1",
       "budget": 20000, "seed": 7, "mode": "anneal"}
    ]}

    Problem kinds: ["netlist"] (field ["netlist"], the textual format),
    ["tsp"] (field ["cities"], a random uniform instance derived from
    [seed]), ["qap"] (fields ["n"], optional ["max_entry"], a random
    instance derived from [seed]).  Optional fields: ["gfun"] (Table
    4.1 class name, default six-temperature annealing), ["y"] (base
    temperature, default 1.0), ["seed"] (default 0), ["mode"]
    (["anneal"] default, or ["race"] for a catalog tournament),
    ["deadline"] (seconds: per attempt, on the wall clock, for an
    anneal job; CPU time from the race's start, checked between rungs,
    for a race job), ["chaos"] ({["fault"],
    ["attempts"]} — fault injection for the resilience tests). *)

type problem =
  | Netlist of string
  | Tsp of { cities : int }
  | Qap of { n : int; max_entry : int }

type mode = Anneal | Race

type chaos = { fault : Mc_problem.fault; attempts : int }
(** [fault] is any of {!Mc_problem.fault_names} but ["slow"]. *)

type t = {
  problem : problem;
  gfun : string;
  y : float;
  budget : int;
  seed : int;
  mode : mode;
  deadline : float option;
  chaos : chaos option;
}

val of_json : max_budget:int -> Obs.Json.t -> (t, string) result
(** Strict, bounded parse; the error string names the offending
    field.  Budgets above [max_budget] are rejected (the cap is the
    server's, not the protocol's). *)

val parse : max_budget:int -> string -> (t, string) result
(** {!of_json} over raw text. *)

val of_json_stored : Obs.Json.t -> (t, string) result
(** Re-parse a canonical spec from a manifest written by this daemon
    (budget cap not re-applied). *)

val to_json : t -> Obs.Json.t
(** Canonical rendering: every field present, floats as [%h] text so
    the round-trip is exact. *)

val fingerprint : t -> Obs.Json.t
(** The run-configuration fingerprint checkpoints are tagged with
    (netlist text collapsed to a digest).  Two specs share a
    fingerprint iff their runs are bit-identical. *)

val mode_name : mode -> string
