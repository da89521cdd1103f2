(** The Table 1 workload and its functional payload.

    Table 1 measures "time needed to decode 16 tiles with 3
    components". With [payload] enabled, a real image is encoded by
    our own encoder and every system model performs the actual staged
    decode (entropy decode → IQ → IDWT → ICT/DC) on genuine tile
    data, so a mis-wired model produces a wrong image, not just wrong
    timing. The payload image is reduced (128×128, 32×32 tiles) to
    keep simulations fast; the timing annotations are the profiled
    full-scale values from {!Profile}. Without [payload] the stage
    bodies are skipped and only timing is simulated. *)

type t

val codestream : ?width:int -> ?height:int -> ?seed:int -> Profile.mode -> string
(** The standard case-study codestream: a {!Jpeg2000.Image.smooth}
    image encoded at the Table 1 geometry (32×32 tiles, 3 wavelet
    levels, 16-sample code blocks; default 128×128, seed 2008). The
    payload below, the bench harness and the serving layer's
    synthetic corpus all use it, so every consumer exercises the same
    encoder configuration. *)

val make :
  ?payload:bool -> ?corrupt:int * float -> ?pool:Par.Pool.t -> Profile.mode -> t
(** 16 tiles, 3 components. [payload] defaults to [true]. [pool]
    (default {!Par.Pool.sequential}) fans the payload decode — and
    every staged decode the models perform — out over independent
    code blocks and component planes; results are bit-identical on
    any pool.
    [corrupt (seed, rate)] flips, deterministically from [seed], each
    entropy-coded payload byte's bit with probability [rate] before
    the run; the staged decode then uses the robust (per-code-block
    containment) entropy decoder, and the functional check compares
    against the robust reference decode of the same damaged stream —
    a model is still verified bit-exactly, concealment included. *)

val mode : t -> Profile.mode
val tile_count : t -> int

val corrupted : t -> bool
(** Whether this workload carries a corrupted payload. *)

val concealed_blocks : t -> int
(** Code blocks the robust reference decode concealed. *)

val concealed_tiles : t -> int
(** Tiles the robust reference decode concealed whole. *)

val psnr_db : t -> float
(** PSNR of the (concealment-degraded) reference against the clean
    decode; [infinity] for an uncorrupted workload. *)

(** {1 Stage bodies}

    Each takes a tile index. They are pure bookkeeping on internal
    slot arrays — the models wrap them in EETs, Shared-Object calls
    and channels. Without payload they are no-ops. Stages must be
    invoked in order per tile; violations raise [Failure], so a model
    with broken synchronisation fails loudly. *)

val stage_decode : t -> int -> unit
val stage_iq : t -> int -> unit
val stage_idwt : t -> int -> unit
val stage_ict_dc : t -> int -> unit

val check : t -> bool option
(** After a run: [Some true] if all tiles went through all stages and
    the assembled image equals the reference decoder's output;
    [None] when running without payload. *)
