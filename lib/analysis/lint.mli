(** The lint driver: walk source trees, parse with the compiler's own
    front end, run the registered rules (syntactic and —
    given a policy — the typed pass over [.cmt] files), honour
    per-site suppressions, and render text or JSON
    ([sa-lab/lint-report/v2]) reports.

    Directory walking skips [_build], hidden directories, and any
    directory containing an [sa-lint.skip] marker file (how the
    deliberately-broken fixtures under [test/lint_fixtures] are kept
    out of the repo-wide pass while remaining directly lintable). *)

type report = {
  files_scanned : int;
  files_reanalyzed : int;
      (** [.ml] files whose syntactic results were computed this run
          rather than served from the cache (equals the [.ml] count
          when no cache was given) *)
  typed_modules : int;  (** compilation units in the typed pass *)
  suppressions : int;  (** sa-lint directives seen across the tree *)
  rules : Lint_rule.t list;  (** the rule set the report was made with *)
  diagnostics : Lint_diagnostic.t list;  (** sorted, suppressions removed *)
}

val skip_marker : string
(** ["sa-lint.skip"]. *)

val scan_files : root:string -> string list -> string list
(** [scan_files ~root paths] walks each of [paths] (relative to
    [root]; files or directories) and returns the [.ml]/[.mli] files
    found, as sorted root-relative paths.  A path that does not exist
    is an error.

    @raise Sys_error on unreadable paths. *)

val run :
  ?rules:Lint_rule.t list ->
  ?cache:Lint_cache.t ->
  ?typed:Callgraph.policy ->
  ?cmt_dirs:string list ->
  root:string ->
  string list ->
  report
(** Lint [paths] under [root] with [rules] (default: the current
    {!Lint_rule.all} registry).

    [cache] serves unchanged files (and unchanged [.cmt] summaries)
    from disk; the caller owns the cache's version fingerprint.
    [typed] enables the typed pass under the given policy: [.cmt]
    files are discovered under [cmt_dirs] (default:
    {!Cmt_loader.default_dirs}), summarized into a whole-program call
    graph, and the registered [Typed] rules run over it.  Typed
    diagnostics are rewritten onto scanned paths (suffix match), so
    suppression directives in the sources apply to them too.

    Parse failures surface as diagnostics of a synthetic
    [parse-error] rule rather than exceptions. *)

val error_count : report -> int
val warning_count : report -> int

val parse_error_count : report -> int
(** Diagnostics from the synthetic [parse-error] rule — these drive
    exit status 2 (engine error), not 1 (findings). *)

val to_json :
  ?baseline:(Lint_diagnostic.t * bool) list * Baseline.stats ->
  report ->
  Obs.Json.t
(** The [sa-lab/lint-report/v2] document.  When [baseline] (the
    result of {!Baseline.apply} on the report's diagnostics) is given,
    each diagnostic carries a [baselined] flag and the document gains
    a [baseline] stats object. *)

val pp_text :
  ?baseline:(Lint_diagnostic.t * bool) list * Baseline.stats ->
  Format.formatter ->
  report ->
  unit
(** One line per diagnostic plus a summary line.  With [baseline],
    baselined diagnostics are elided and the summary shows
    matched/fresh/stale counts. *)
