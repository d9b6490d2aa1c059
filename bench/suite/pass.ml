(* What a workload hands the runner.  A workload builds fresh inputs
   with [setup] before every pass, so all passes of a run do the same
   work and must end in the same state ([fingerprint]). *)

(* Simulated-time results of one pass.  They repeat exactly for a
   seed, so the runner takes them from the warm-up pass. *)
type sim = {
  makespan : float;  (** simulated s from the first submit to the last completion *)
  p50 : float;  (** simulated latency of one user request, s *)
  p99 : float;
  api_calls : int;  (** cloud API calls, throttled attempts included *)
  sim_ops : int;  (** ops the calls are shared over *)
}

type t = {
  wall : float;  (** wall s of the pass's user-facing work, checks excluded *)
  ops : int;  (** ops completed *)
  failed : int;  (** ops failed or skipped *)
  cycles : float list;  (** wall s of each cycle a user waits on *)
  fingerprint : string;  (** digest of the end state *)
  checks : (string * bool) list;  (** named correctness checks *)
  sim : sim option;
  counters : (string * float) list;
      (** per-layer values the traced pass reads from the program *)
}

type workload = {
  setup : Spans.t -> unit;
      (** fresh inputs for the next pass; the recorder is the one the
          pass will run under, for inputs that carry a tracer *)
  run : unit -> t;  (** one untraced pass through the user-facing entry points *)
  replay : Spans.t -> t;
      (** the same pass, one public function at a time under the
          suite's spans; reports [sim] and [counters] *)
  audit : unit -> (string * bool) list;  (** checks after the last pass *)
}
