(** FOSSY's behavioural intermediate representation.

    The synthesisable subset of an OSSS/SystemC module: one clocked
    process described with typed integer variables, arrays, functions
    and procedures, structured control flow, and explicit [Wait]
    clock boundaries. The IDWT cores of the case-study are authored
    in this IR (the "synthesisable SystemC model"); FOSSY inlines all
    subprograms, extracts an explicit FSM at the [Wait] boundaries and
    emits VHDL. *)

type ty = { width : int; signed : bool }

val int_ty : int -> ty
(** Signed integer of the given bit width. *)

val uint_ty : int -> ty

type binop =
  | Add | Sub | Mul
  | Shl | Shr
  | Band | Bor | Bxor
  | Eq | Ne | Lt | Le | Gt | Ge

type unop = Neg | Bnot

type expr =
  | Const of int
  | Var of string
  | Arr of string * expr
  | Bin of binop * expr * expr
  | Un of unop * expr
  | Call of string * expr list

type lvalue = Lv_var of string | Lv_arr of string * expr

type stmt =
  | Assign of lvalue * expr
  | If of expr * stmt list * stmt list
  | While of expr * stmt list
      (** synthesisable only if the body contains a [Wait] *)
  | For of string * int * int * stmt list
      (** constant bounds, inclusive; unrolled when the body has no
          [Wait], rewritten to a clocked while-loop otherwise *)
  | Wait  (** one clock cycle *)
  | Call_p of string * expr list  (** procedure call *)
  | Return of expr option
      (** only allowed as the last statement of a function body *)

type subprogram = {
  s_name : string;
  s_params : (string * ty) list;
  s_ret : ty option;  (** [None] for procedures *)
  s_locals : (string * ty) list;
  s_body : stmt list;
}

type port_dir = Pin | Pout

type module_def = {
  m_name : string;
  m_ports : (string * port_dir * ty) list;
  m_vars : (string * ty) list;
  m_arrays : (string * ty * int) list;  (** name, element type, length *)
  m_subprograms : subprogram list;
  m_body : stmt list;  (** main process; loops forever *)
}

(** {1 Convenience constructors} *)

val v : string -> expr
val c : int -> expr
val ( +: ) : expr -> expr -> expr
val ( -: ) : expr -> expr -> expr
val ( *: ) : expr -> expr -> expr
val ( >>: ) : expr -> int -> expr
val ( <: ) : expr -> expr -> expr
val assign : string -> expr -> stmt
val assign_arr : string -> expr -> expr -> stmt

val stmts_contain_wait : stmt list -> bool
(** Whether a statement list contains a clock boundary (recursively). *)

(** {1 Validation} *)

val validate : module_def -> (unit, string list) result
(** Structural checks: unique names, variables declared before use,
    [Return] only at function tails, no [Wait]-free [While] loops,
    array indices on declared arrays, called subprograms defined. *)
