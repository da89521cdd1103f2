(** The Virtual-Target-Architecture models (Table 1, lower half).

    The behavioural structures of versions 3 and 5 refined onto the
    ML401 platform: Software Tasks mapped onto 100 MHz MicroBlaze
    processors, tile payloads serialised into 32-bit words, the
    HW/SW Shared Object's arrays inserted into a 32-bit × 16-bit
    block RAM, and the communication links mapped per model:

    - 6a: version 3; every link to the HW/SW SO on the shared OPB;
    - 6b: version 3; the IDWT blocks reach the HW/SW SO over
      dedicated point-to-point channels instead;
    - 7a: version 5 (4 MicroBlazes), all HW/SW SO links on the OPB;
    - 7b: version 5 with the IDWT point-to-point channels of 6b. *)

val run_custom :
  ?bus_max_burst:int ->
  ?so_policy:Osss.Arbiter.policy ->
  ?protection:Osss.Channel.protection ->
  version:string ->
  sw_tasks:int ->
  idwt_p2p:bool ->
  Workload.t ->
  Outcome.t
(** Parameterised VTA run for architecture exploration (the
    [bus_contention] example sweeps the OPB burst length with it, and
    [bench/main.ml]'s ablation rows the HW/SW Shared Object's
    [so_policy]). [protection] (default [Unprotected]) is applied to
    every channel of the rig — the hardened-RMI mode of the fault
    campaigns. *)

val mapping : sw_tasks:int -> idwt_p2p:bool -> Osss.Vta.t
(** The declarative VTA mapping registry for the given configuration
    (validated; used by platform generation and shown by the CLI). Its
    links and Shared-Object accesses name the Shared Objects as the
    simulation creates them: [hwsw_so] and [idwt_params_so]. *)
