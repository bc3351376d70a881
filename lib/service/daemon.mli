(** The persistent daemon loop: newline-delimited strict-JSON requests
    on stdin (and, optionally, a Unix-domain socket), responses on
    stdout (or back down each client connection).

    {b Batching.} Input is drained greedily: every request line that is
    already readable joins the current batch, and the batch is handed
    to {!Engine.process} only when the input momentarily runs dry (or
    [max_batch] is reached). A client that pipelines N requests
    therefore gets them carved through the sweep's fair-deadline
    machinery as one batch rather than solved FIFO; a client that
    trickles them gets singleton batches and FIFO behavior — both
    without any protocol-level framing.

    {b Shutdown.} EOF on the primary input, or SIGTERM, begins a
    drained shutdown: the listener closes, every already-received
    request is processed, all responses are flushed, and the loop
    returns 0. In-flight requests are never dropped.

    {b Robustness.} A malformed line yields a structured error response
    (never a crash); a request whose handling raises gets an error
    line too (see {!Engine}); SIGPIPE is ignored, so a client that
    disconnects mid-response cannot kill the daemon. *)

val run :
  ?socket:string ->
  ?max_batch:int ->
  ?input:Unix.file_descr ->
  ?output:Unix.file_descr ->
  Engine.t ->
  (int, string) result
(** [run engine] serves until EOF/SIGTERM and returns [Ok 0] after a
    drained shutdown. [socket] additionally listens on a Unix-domain
    socket at that path (created, and unlinked again on shutdown);
    binding failures return [Error msg] before any request is read —
    the CLI maps this to its service-startup exit code. [max_batch]
    (default 64) caps how many requests one batch may hold. [input] /
    [output] default to stdin/stdout (tests pass pipes). *)
