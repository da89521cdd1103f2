(* The clock the generated testbench drives: 100 MHz. *)
let clock_ns = 10

let generate (fsm : Fsm.t) ~stimulus ~reference =
  let buf = Buffer.create 2048 in
  let line fmt = Format.kasprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  let name = fsm.Fsm.fsm_name in
  line "library ieee;";
  line "use ieee.std_logic_1164.all;";
  line "use ieee.numeric_std.all;";
  line "";
  line "entity %s_tb is" name;
  line "end entity;";
  line "";
  line "architecture sim of %s_tb is" name;
  line "  signal clk : std_logic := '0';";
  line "  signal reset : std_logic := '1';";
  List.iter
    (fun (n, ty) -> line "  signal %s : signed(%d downto 0) := (others => '0');" n (ty.Hir.width - 1))
    fsm.Fsm.inputs;
  List.iter
    (fun (n, ty) -> line "  signal %s : signed(%d downto 0);" n (ty.Hir.width - 1))
    fsm.Fsm.outputs;
  line "";
  let vector label values =
    if values = [] then line "  -- %s: no values" label
    else begin
      line "  type %s_t is array (0 to %d) of integer;" label (List.length values - 1);
      line "  constant %s : %s_t := (%s);" label label
        (match values with
        | [ single ] -> Printf.sprintf "0 => %d" single
        | _ -> String.concat ", " (List.map string_of_int values))
    end
  in
  List.iter
    (fun (port, values) -> vector (port ^ "_stimulus") values)
    stimulus;
  List.iter
    (fun (port, values) -> vector (port ^ "_reference") values)
    reference;
  line "begin";
  line "  clk <= not clk after %d ns;" (clock_ns / 2);
  line "  reset <= '0' after %d ns;" (2 * clock_ns);
  line "";
  line "  dut : entity work.%s" name;
  line "    port map (";
  let ports =
    [ "clk => clk"; "reset => reset" ]
    @ List.map (fun (n, _) -> Printf.sprintf "%s => %s" n n) fsm.Fsm.inputs
    @ List.map (fun (n, _) -> Printf.sprintf "%s => %s" n n) fsm.Fsm.outputs
  in
  List.iteri
    (fun i p -> line "      %s%s" p (if i = List.length ports - 1 then "" else ","))
    ports;
  line "    );";
  line "";
  List.iter
    (fun (port, values) ->
      if values <> [] then begin
        line "  -- Drives %s with the values the behavioural model consumed," port;
        line "  -- one per clock (the model may sample several per cycle through";
        line "  -- a wider physical port - adapt the pacing to your interface).";
        line "  drive_%s : process" port;
        line "    variable idx : integer := 0;";
        line "  begin";
        line "    wait until reset = '0';";
        line "    while idx <= %s_stimulus'high loop" port;
        line "      wait until rising_edge(clk);";
        line "      %s <= to_signed(%s_stimulus(idx), %s'length);" port port port;
        line "      idx := idx + 1;";
        line "    end loop;";
        line "    wait;";
        line "  end process;";
        line ""
      end)
    stimulus;
  List.iter
    (fun (port, values) ->
      if values <> [] then begin
        line "  -- Checks %s against the behavioural model's output stream." port;
        line "  check_%s : process" port;
        line "    variable idx : integer := 0;";
        line "  begin";
        line "    wait until reset = '0';";
        line "    while idx <= %s_reference'high loop" port;
        line "      wait on %s;" port;
        line "      assert to_integer(%s) = %s_reference(idx)" port port;
        line "        report \"%s mismatch at index \" & integer'image(idx)" port;
        line "        severity error;";
        line "      idx := idx + 1;";
        line "    end loop;";
        line "    report \"%s: all %d reference values observed\" severity note;"
          port (List.length values);
        line "    wait;";
        line "  end process;";
        line ""
      end)
    reference;
  line "end architecture;";
  Buffer.contents buf

let generate_for_module md ~stimulus ?(max_outputs = 0) () =
  match Hir.validate md with
  | Error es -> Error es
  | Ok () ->
    let fsm = Fsm.of_module (Inline.run md) in
    let reference = Interp.run_fsm ~max_outputs fsm stimulus in
    Ok (generate fsm ~stimulus ~reference)
