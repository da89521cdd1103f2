let resolve_track t track =
  match track with Some tr -> tr | None -> Sink.default_track t

let complete ~ts_ps ~dur_ps ?track ?(cat = "span") ?(args = []) name =
  match Sink.active () with
  | None -> ()
  | Some t ->
    if dur_ps < 0 then invalid_arg "Telemetry.Span.complete: dur_ps < 0";
    Sink.emit
      {
        Event.ts_ps;
        track = resolve_track t track;
        name;
        cat;
        phase = Event.Complete dur_ps;
        args;
      }

let instant ~ts_ps ?track ?(cat = "instant") ?(args = []) name =
  match Sink.active () with
  | None -> ()
  | Some t ->
    Sink.emit
      {
        Event.ts_ps;
        track = resolve_track t track;
        name;
        cat;
        phase = Event.Instant;
        args;
      }

let counter ~ts_ps ?track name value =
  match Sink.active () with
  | None -> ()
  | Some t ->
    Sink.emit
      {
        Event.ts_ps;
        track = resolve_track t track;
        name;
        cat = "counter";
        phase = Event.Counter value;
        args = [];
      }
