module D = Fossy.Diagnostic

(* -- OSSS guard-deadlock analysis ------------------------------------ *)

(* A guarded Shared-Object call blocks until another client's
   completed call re-evaluates the guard. Statically, client A
   wait-depends on client B if A guard-waits on an object B also
   accesses; a strongly connected component of that relation is a
   deadlock when nobody outside it (and no unguarded call inside it)
   can ever fire the guards. *)

let dedup xs =
  List.fold_left (fun acc x -> if List.mem x acc then acc else acc @ [ x ]) [] xs

let sccs nodes succ =
  (* Tarjan. The graphs here are a handful of tasks and modules. *)
  let index = Hashtbl.create 8 and low = Hashtbl.create 8 in
  let on_stack = Hashtbl.create 8 in
  let stack = ref [] and counter = ref 0 and out = ref [] in
  let rec strongconnect v =
    Hashtbl.replace index v !counter;
    Hashtbl.replace low v !counter;
    incr counter;
    stack := v :: !stack;
    Hashtbl.replace on_stack v ();
    List.iter
      (fun w ->
        if not (Hashtbl.mem index w) then begin
          strongconnect w;
          Hashtbl.replace low v (min (Hashtbl.find low v) (Hashtbl.find low w))
        end
        else if Hashtbl.mem on_stack w then
          Hashtbl.replace low v (min (Hashtbl.find low v) (Hashtbl.find index w)))
      (succ v);
    if Hashtbl.find low v = Hashtbl.find index v then begin
      let rec pop acc =
        match !stack with
        | [] -> acc
        | w :: rest ->
          stack := rest;
          Hashtbl.remove on_stack w;
          if String.equal w v then w :: acc else pop (w :: acc)
      in
      out := pop [] :: !out
    end
  in
  List.iter (fun v -> if not (Hashtbl.mem index v) then strongconnect v) nodes;
  List.rev !out

let guard_deadlocks vta =
  let accesses = Osss.Vta.so_accesses vta in
  let clients = dedup (List.map (fun a -> a.Osss.Vta.sa_client) accesses) in
  let accessors so =
    dedup
      (List.filter_map
         (fun a ->
           if String.equal a.Osss.Vta.sa_object so then Some a.Osss.Vta.sa_client
           else None)
         accesses)
  in
  let guard_waits c =
    dedup
      (List.filter_map
         (fun a ->
           if String.equal a.Osss.Vta.sa_client c && a.Osss.Vta.sa_guarded then
             Some a.Osss.Vta.sa_object
           else None)
         accesses)
  in
  let has_unguarded_access c so =
    List.exists
      (fun a ->
        String.equal a.Osss.Vta.sa_client c
        && String.equal a.Osss.Vta.sa_object so
        && not a.Osss.Vta.sa_guarded)
      accesses
  in
  let acc = ref [] in
  (* An isolated guard: no other client ever touches the object, so no
     call can ever enable it. *)
  List.iter
    (fun c ->
      List.iter
        (fun so ->
          if List.filter (fun d -> not (String.equal d c)) (accessors so) = []
          then
            acc :=
              D.error ~code:"E014"
                ~path:("vta/" ^ c)
                "guarded call on shared object %s can never be enabled: no \
                 other client accesses it"
                so
              :: !acc)
        (guard_waits c))
    clients;
  let succ c =
    List.concat_map
      (fun so -> List.filter (fun d -> not (String.equal d c)) (accessors so))
      (guard_waits c)
    |> dedup
  in
  List.iter
    (fun component ->
      match component with
      | [] | [ _ ] -> ()
      | members ->
        let inside d = List.mem d members in
        let waited_sos = dedup (List.concat_map guard_waits members) in
        let blocked_forever =
          waited_sos <> []
          && List.for_all
               (fun so ->
                 List.for_all inside (accessors so)
                 && List.for_all
                      (fun d -> not (has_unguarded_access d so))
                      (accessors so))
               waited_sos
        in
        if blocked_forever then
          acc :=
            D.error ~code:"E014"
              ~path:("vta/" ^ String.concat "," members)
              "guard deadlock: clients {%s} wait on shared objects {%s} and \
               only ever reach them through guarded calls"
              (String.concat ", " members)
              (String.concat ", " waited_sos)
            :: !acc)
    (sccs clients succ);
  List.sort_uniq D.compare !acc
