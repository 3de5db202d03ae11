(** The one orchestration path from a synthesis/ATPG request to its
    result, shared by the CLI ([hlts synth]/[atpg]/[table]), the bench
    harness and the [hlts serve] daemon.

    A {!request} names everything the answer depends on — the design
    (by content, not by name), the flow, the synthesis parameters, the
    evaluation width, the ATPG budget and engine — and nothing it does
    not (job counts and pool backends change only wall-clock time, never
    a result byte, so they live on the engine, not in the request).
    {!request_digest} is an MD5 over that canonical content; two
    requests digest equal iff the pipeline is guaranteed to produce
    byte-identical results for them, which is what makes the digest a
    sound cache key.

    Execution consults a {!Cache} at three tiers before computing:

    - [result]: request digest -> complete response + decision journal;
    - [atpg]: (netlist digest, ATPG config, engine) -> raw fault-sim /
      test-generation result, shared by requests that reach the same
      gate-level circuit through different wrappers;
    - [outcome] (memory tier only — synthesized outcomes hold memoized
      views): (DFG digest, approach, params) -> synthesized outcome +
      its decision journal, shared by every evaluation width with equal
      params and by testability/synth requests for the same design.

    Cache hits are byte-identical to cold runs, journal included: the
    journal is captured at compute time and stored with the result. *)

module Flows = Hlts_synth.Flows

type spec = {
  bench : string;  (** display name; never part of any digest *)
  dfg : Hlts_dfg.Dfg.t;
  approach : Flows.approach;
  bits : int;  (** evaluation width (expansion, ATPG, area) *)
  params : Hlts_synth.Synth.params;
  atpg : Hlts_atpg.Atpg.config;
  engine : Hlts_atpg.Atpg.engine;
}

val spec :
  ?params:Hlts_synth.Synth.params ->
  ?atpg:Hlts_atpg.Atpg.config ->
  ?engine:Hlts_atpg.Atpg.engine ->
  ?dfg:Hlts_dfg.Dfg.t ->
  bench:string ->
  approach:Flows.approach ->
  bits:int ->
  unit ->
  (spec, string) result
(** [params] defaults to {!Eval.params_for_bits}[ bits], [atpg] to
    {!Hlts_atpg.Atpg.default_config}, [engine] to [`Ppsfp]. Without
    [dfg] the benchmark is resolved through
    {!Hlts_dfg.Benchmarks.find_result} (the [Error] case is its
    message). [Error] also when [bits] or [params.bits] fails
    {!Eval.check_bits}. *)

type request =
  | Synth of spec  (** synthesis only: schedule/allocation/area *)
  | Testability of spec  (** synthesis + CC/SC/CO/SO analysis *)
  | Atpg of spec  (** the full pipeline: one table row *)
  | Sweep of spec list
      (** a batch of [Atpg] cells, fanned out over the worker pool;
          the response preserves cell order *)

type synth_summary = {
  sy_schedule_length : int;
  sy_execution_time : int;
  sy_n_registers : int;
  sy_n_fus : int;
  sy_n_mux : int;
  sy_area_mm2 : float;
  sy_seq_depth : float;
  sy_iterations : int;  (** 0 for the separate-step flows *)
}

type testability_summary = {
  ts_registers : (int * Hlts_testability.Testability.measures) list;
  ts_fus : (int * Hlts_testability.Testability.measures) list;
  ts_seq_depth : float;
}

type response =
  | Synth_done of synth_summary
  | Testability_done of testability_summary
  | Row of Eval.row
  | Rows of Eval.row list

type result = {
  digest : string;  (** {!request_digest} of the request *)
  response : response;
  journal : Hlts_obs.Journal.event list;
      (** the decision journal of every synthesis the request ran (or
          would have run — cache hits return the stored journal),
          byte-identical cold or warm, at any job count *)
  cached : bool;  (** everything was served from the cache *)
  probe_s : float;
      (** wall seconds spent probing the result cache tier — the
          daemon's "cache" phase. Telemetry only: never serialized,
          never part of any digest. *)
  compute_s : float;
      (** wall seconds of everything else [run] did (synthesis, ATPG,
          inner cache tiers). [probe_s +. compute_s] is the total wall
          of the call. Telemetry only. *)
}

(** {1 Digests} *)

val spec_digest : op:string -> ?with_atpg:bool -> spec -> string
(** Canonical digest of a spec under operation namespace [op]. With
    [with_atpg:false] (synthesis-only operations) the ATPG config and
    engine are excluded, so an ATPG-budget change does not evict
    synthesis entries. Includes the engine schema version: a semantic
    change to the pipeline bumps it and orphans (never corrupts) old
    cache entries. *)

val request_digest : request -> string

val response_digest : response -> string
(** MD5 over the canonical JSON rendering ({!response_to_json}). *)

val journal_digest : Hlts_obs.Journal.event list -> string

(** {1 Execution} *)

type t

val create :
  ?cache:Cache.t ->
  ?jobs:int ->
  ?backend:Hlts_pool.Pool.backend ->
  unit ->
  t
(** [cache] defaults to a fresh memory-only {!Cache.create} — callers
    wanting cross-run reuse pass a disk-backed cache. [jobs]/[backend]
    size the worker pool used for [Sweep] cell fan-out, single-request
    PPSFP word batches and [Synth] candidate evaluation; defaults:
    [Par.default_jobs ()] / [Pool.default_backend ()]. *)

val cache : t -> Cache.t

val run : t -> request -> result
(** Executes (or recalls) the request. Deterministic: for a fixed
    request, [response], [journal] and both digests are byte-identical
    across cold/warm runs, job counts and pool backends.
    @raise Invalid_argument as {!Hlts_pool.Pool.create} on an
    unavailable backend. *)

(** {1 Wire codecs} (the [hlts serve] protocol payloads)

    Requests travel as JSON naming the benchmark; the daemon re-resolves
    it and digests the content, so a client cannot poison the cache with
    a mismatched name. Responses travel as the same canonical JSON the
    digests are computed over. *)

val spec_to_json : spec -> Hlts_obs.Json.t
val spec_of_json : Hlts_obs.Json.t -> (spec, string) Stdlib.result
val request_to_json : request -> Hlts_obs.Json.t
val request_of_json : Hlts_obs.Json.t -> (request, string) Stdlib.result
val response_to_json : response -> Hlts_obs.Json.t
val row_to_json : Eval.row -> Hlts_obs.Json.t
