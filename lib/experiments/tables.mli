(** The registry of every reproduction table.

    One entry per table of the paper (the §4.2.1 tuning by-product,
    Table 4.1 and its agreement with the paper, Tables 4.2(a)–(d)), of
    the extensions (E1–E7, S1) and of the ablations (A1–A9), in the
    order [bench/main.exe] prints them.  [sa_lab tables] selects from
    the same list by [id]. *)

type entry = {
  id : string;  (** the [sa_lab tables] selector, e.g. ["4.1"], ["E1"] *)
  label : string;
      (** the bench progress label, also the table's [name] in the
          [sa-lab/bench-results/v2] summary *)
  build : Linarr_tables.config -> Linarr_tables.context Lazy.t -> Report.t;
      (** Tables over the tuned GOLA/NOLA suites force the context; the
          others read only the seed and scale of the config. *)
}

val all : entry list
