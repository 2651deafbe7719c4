(** Register-tiled, cache-blocked GEMM microkernels for the per-tap
    Winograd GEMMs.

    One fixed register block — MR = NR = 4, KC = 256 (see {!config}) —
    with one dense float kernel, two dense int kernels (one product per
    word, {!gemm_i32}, and two products per word, {!gemm_i32_pair}, for
    operands proven to fit) and one sparse int kernel. The drivers
    raise [Invalid_argument] naming the offending value when handed any
    other [mr]/[nr]; [kc] is a real parameter (the KC-panel fold works
    for any depth).

    Operands are *packed* panels, padded to full register blocks:

    - A (tiles): [ceil(rows/MR)] consecutive [K × MR] panels; element
      [(k, lane)] of panel [ib] lives at [ib·K·MR + k·MR + lane].
    - B (weights): [ceil(cols/NR)] consecutive [K × NR] panels; element
      [(k, lane)] of panel [jb] lives at [jb·K·NR + k·NR + lane].
    - C: row-major with row stride [cstride ≥ cols_p].  Every driver
      writes its [rows_p × cols_p] block, C := A·B, without reading
      what the block held: callers need not zero it.  Elements outside
      the block are left alone.

    Pad lanes of A and B must be zero: the corresponding C elements then
    compute exact zeros and callers simply never read them.

    Numerical contract: each C element is a left fold over ascending [k]
    from zero — the first KC panel starts at zero, later panels resume
    from the stored partial — so KC-panel splitting does not change the
    association. The integer kernels are bit-identical to the naive
    triple loop; the float kernels are IEEE-identical up to the sign of
    zeros (the tile-major float oracle's [Ops.matmul] skips zero left
    operands, the kernels do not). *)

type cfg = { mr : int; nr : int; kc : int }

val config : unit -> cfg
(** The register block every driver runs: [{mr = 4; nr = 4; kc = 256}].
    It is a compile-time constant — there is no runtime or environment
    override. Callers pack with [mr]/[nr] from here and pass all three
    fields back to the drivers. *)

val sparse_threshold : unit -> float
(** Density cutoff for the compressed-panel path: a tap whose weight
    panel density is strictly below this is packed compressed (see
    {!compress_panel}) by [Tapwise.pack]. Default 0.5; 0.0 disables the
    sparse path entirely. This is process-global state: callers that
    change it temporarily should restore the previous value in
    [Fun.protect ~finally]. *)

val set_sparse_threshold : float -> unit
(** Override the sparse/dense cutoff. Raises [Invalid_argument] outside
    [0, 1]. Only affects packs performed after the call. *)

val round_up : int -> int -> int
(** [round_up n b] is [n] rounded up to a multiple of [b]. *)

val gemm_f32 :
  mr:int ->
  nr:int ->
  kc:int ->
  rows_p:int ->
  cols_p:int ->
  k:int ->
  vp:float array ->
  vo:int ->
  up:float array ->
  uo:int ->
  c:float array ->
  co:int ->
  cstride:int ->
  unit
(** [gemm_f32 ~mr ~nr ~kc ~rows_p ~cols_p ~k ~vp ~vo ~up ~uo ~c ~co
    ~cstride] writes the [rows_p × cols_p] product of the packed panels
    at [vp+vo] / [up+uo] into [c] starting at [co] (C := A·B; with
    [k = 0] the block is zeroed). [rows_p] and [cols_p] must be
    multiples of [mr] and [nr] respectively; [k] is processed in
    [kc]-deep panels. Raises [Invalid_argument] unless [mr] and [nr]
    match {!config}. *)

val gemm_i32 :
  mr:int ->
  nr:int ->
  kc:int ->
  rows_p:int ->
  cols_p:int ->
  k:int ->
  vp:int array ->
  vo:int ->
  up:int array ->
  uo:int ->
  c:int array ->
  co:int ->
  cstride:int ->
  unit
(** Integer variant of {!gemm_f32}; exact arithmetic, bit-identical to
    the naive ascending-[k] triple loop. *)

(** {1 Paired lanes: two int products per word}

    A paired B panel holds two adjacent output columns per int:
    [lo + hi lsl 32], where [lo] is column [2p] and [hi] column [2p+1]
    of the wide panel. Element [(k, p)] of panel [jb] lives at
    [jb·K·NR/2 + k·NR/2 + p], so one multiply by an A value computes
    both products and one add accumulates both. *)

val pair_acc_bits : int
(** [31]: {!gemm_i32_pair} is exact when every partial sum
    [Σ_{k' ≤ k} A·B] fits this many signed bits, i.e. lies in
    [\[-2^30, 2^30)]. *)

val pair_panel : int array -> so:int -> n:int -> int array -> doff:int -> unit
(** [pair_panel src ~so ~n dst ~doff] folds the [n] (even) ints of the
    NR-packed B panel at [src.(so)] into the [n/2] paired ints at
    [dst.(doff)]: [dst.(doff+i) = src.(so+2i) + src.(so+2i+1) lsl 32]. *)

val gemm_i32_pair :
  mr:int ->
  nr:int ->
  kc:int ->
  rows_p:int ->
  cols_p:int ->
  k:int ->
  vp:int array ->
  vo:int ->
  up:int array ->
  uo:int ->
  c:int array ->
  co:int ->
  cstride:int ->
  unit
(** {!gemm_i32} over a paired B panel at [up+uo] (from {!pair_panel});
    A and C keep their layouts, and C is written as by {!gemm_i32}.
    Partial sums are split exactly on store
    ([lo = (x lsl 31) asr 31], [hi = (x − lo) asr 32]) and packed again
    on load at a KC-panel seam, so within {!pair_acc_bits} the result
    is bit-identical to {!gemm_i32} on the wide panel. Outside it the
    result is wrong: callers must prove the bound first. Raises
    [Invalid_argument] unless [mr] and [nr] match {!config}. *)

(** {1 Compressed panels for pruned taps}

    Block-compressed form of one tap's B panel at the measured-optimal
    granularity: per output column, the ascending list of nonzero k
    rows with their values (compressed sparse columns — the degenerate
    1×1 block of the block-compressed family; larger blocks are never
    all-zero under unstructured magnitude pruning at useful densities).
    Execution skips zero entries only, so the integer result is
    bit-identical to dense execution of the same weights. *)

type sparse = {
  sp_k : int;  (** logical panel depth (Cin) *)
  sp_cols : int;  (** packed column count (Cout rounded up to NR) *)
  sp_off : int array;  (** [cols+1] CSC offsets into [sp_idx]/[sp_val] *)
  sp_idx : int array;  (** nonzero k rows, ascending per column *)
  sp_val : int array;  (** matching weight values *)
}

val compress_panel : nr:int -> k:int -> cols:int -> int array -> uo:int -> sparse
(** [compress_panel ~nr ~k ~cols up ~uo] compresses the NR-packed
    [k × cols] B panel starting at [up.(uo)]. Padded columns (all-zero
    by the packing contract) come out empty. *)

val sparse_nnz : sparse -> int
(** Number of stored nonzero entries. *)

val gemm_i32_sparse :
  mr:int ->
  rows_p:int ->
  sp:sparse ->
  vp:int array ->
  vo:int ->
  c:int array ->
  co:int ->
  cstride:int ->
  unit
(** [gemm_i32_sparse ~mr ~rows_p ~sp ~vp ~vo ~c ~co ~cstride] writes
    the [rows_p × sp.sp_cols] product of the packed A panels at [vp+vo]
    and the compressed B panel into [c] at [co] (row stride [cstride]);
    a column with no nonzeros stores zeros. [rows_p] must be a multiple
    of [mr]. Bit-identical to {!gemm_i32} on the panel [sp] was
    compressed from. Raises [Invalid_argument] unless [mr] matches
    {!config}. *)
