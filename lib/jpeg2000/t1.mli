(** EBCOT Tier-1 bit-plane coder (ISO/IEC 15444-1, Annex D).

    Codes one code-block of signed quantised wavelet coefficients bit-
    plane by bit-plane with three passes per plane — significance
    propagation, magnitude refinement, and cleanup with run-length
    shortcut — driving the {!Mq} coder through the standard 19
    contexts (9 zero-coding, 5 sign-coding, 3 magnitude-refinement,
    run-length, uniform). Zero-coding context formation depends on
    the subband orientation, exactly as in Table D.1.

    A code-block is one cell of its subband's block grid
    ([Codestream.block_grid]), at most the header's code-block size.
    Two codeword layouts exist: {!encode_block}/{!decode_block} code
    all passes into a single MQ codeword, and the SNR-scalable
    functions terminate every pass into its own codeword (the layout
    the codestream carries). Simplifications w.r.t. the full standard
    (documented in DESIGN.md): no BYPASS/RESET/causal modes and no
    rate-distortion truncation inside a pass. Decoding inverts
    encoding bit-exactly, which the property tests check on random
    blocks.

    Two drivers run the passes. Every decode entry point runs, by
    default, passes written for decoding only. Their state is one
    [int] per four-row stripe column: the significance of its 3x6
    neighbourhood, the signs of its rows and its rows' refined and
    visited bits, maintained incrementally. A pass skips a column on
    one load, zero-coding and refinement contexts come from one LUT
    indexed by a row's 3x3 window, and the MQ decision is compiled
    into the passes ({!mq_decode}). [~lut:false] selects the generic
    passes instead: one pass implementation behind a record of
    encode/decode closures, over one flags word per coefficient, with
    the reference per-probe context formation the LUTs are generated
    from. The encoder always runs the generic passes (with LUT
    contexts by default). The two decoders are bit-identical by
    construction; the generic one stays as the cross-check the tests
    compare against and as the benchmark baseline. *)

val num_planes : int array -> int
(** Number of magnitude bit-planes needed for the given coefficients
    (0 if all are zero). *)

val encode_block :
  ?lut:bool ->
  orientation:Subband.orientation -> w:int -> h:int -> int array -> int * string
(** [encode_block ~orientation ~w ~h coeffs] returns
    [(bit-planes, codeword)]. [coeffs] is row-major of length
    [w * h]. An all-zero block yields [(0, "")]. [lut] (default
    [true]) selects the packed-LUT context formation. *)

val decode_block :
  ?lut:bool ->
  orientation:Subband.orientation -> w:int -> h:int -> planes:int -> string -> int array
(** Inverse of {!encode_block}: reconstructs the exact coefficients.
    [lut] (default [true]) selects the decoder-specialised passes;
    [false] the generic reference driver. Raises [Invalid_argument]
    on a non-positive dimension or a negative plane count (as do the
    other decoders). *)

(** {1 SNR-scalable coding}

    The standard's pass-termination option: every coding pass is
    flushed into its own MQ codeword (contexts persist across
    passes), so dropping trailing segments yields a coarser — but
    exactly decodable — reconstruction. *)

val total_passes : planes:int -> int
(** Number of coding passes for a block with that many bit-planes
    ([1 + 3*(planes-1)], 0 for an empty block). *)

val encode_block_scalable :
  ?lut:bool ->
  orientation:Subband.orientation ->
  w:int ->
  h:int ->
  int array ->
  int * string list
(** [(bit-planes, one codeword per pass)]. *)

val decode_block_scalable :
  ?lut:bool ->
  orientation:Subband.orientation ->
  w:int ->
  h:int ->
  planes:int ->
  string list ->
  int array
(** Decodes the given pass segments (a prefix of the encoder's list)
    into a fresh array; with all of them the reconstruction is exact.
    Reference for tests: the decoder runs
    {!decode_block_scalable_scratch}. *)

val decode_block_scalable_scratch :
  ?lut:bool ->
  orientation:Subband.orientation ->
  w:int ->
  h:int ->
  planes:int ->
  string list ->
  int array
(** {!decode_block_scalable} into per-domain scratch state
    ([Domain.DLS]): the column words, magnitude buffer, MQ contexts
    and MQ registers of the calling domain are re-initialised in place
    instead of allocated, so decoding a stream of blocks performs no per-block
    heap allocation. The returned array is that scratch buffer — its
    [w * h] row-major prefix holds the signed coefficients, it may be
    longer than [w * h], and it is only valid until the next scratch
    decode on the same domain: callers must copy (blit) the block out
    before decoding another. Decodes that raise leave no partial
    output anywhere but the scratch buffer, so a failed block cannot
    poison shared planes (the robust path's containment). The column
    words are one per stripe column, [(w + 2) * (ceil (h / 4) + 2)]:
    a 4096x4096 block takes 4.2 M words where one word per
    coefficient took 16.8 M. *)

(** {1 MQ decoding}

    The MQ decoder (ISO/IEC 15444-1, C.3) of every T1 decode. It is
    defined here, not in {!Mq}, so that its decision compiles into
    the decoding passes. Contexts are {!Mq}'s packed states. *)

type mq_decoder

val mq_decoder : string -> mq_decoder
(** Initialises decoding over a terminated codeword. Reading past the
    end behaves as if [0xFF] bytes followed, per the standard. *)

val mq_decode : mq_decoder -> int array -> int -> int
(** [mq_decode d contexts i] decodes one binary decision in context
    [contexts.(i)] and updates that context's state. *)
