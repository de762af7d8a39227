(** Streaming trace I/O.

    A trace file starts with a one-line header identifying the format,
    followed by the records:

    - [lktrace 1 text] — one record per line ({!Record.to_line}).
    - [lktrace 1 bin] — per record, five LEB128 varints: the arrival
      delta from the previous record, [core + 1], [reads], [writes],
      [phase]. Delta encoding makes nondecreasing arrivals cheap (a
      steady stream costs ~5 bytes per transaction).

    Readers and writers are strictly streaming: memory use is
    independent of trace length. Both enforce nondecreasing arrival
    cycles; readers reject truncated or garbage input with a
    position-tagged error. *)

type format = Text | Binary

val format_of_string : string -> (format, string) result
(** ["text"] or ["bin"]. *)

val format_to_string : format -> string

(** {1 Reading} *)

type reader

val reader_of_channel : ?name:string -> in_channel -> (reader, string) result
(** Consumes and checks the header. [name] labels errors (defaults to
    ["<trace>"]); the channel is not closed by the reader. *)

val read : reader -> (Record.t option, string) result
(** Next record; [Ok None] at clean end-of-trace. Errors on malformed
    input, mid-record truncation, or an arrival earlier than its
    predecessor; after an error or end-of-trace, subsequent calls
    return the same result. *)

val fold :
  reader -> init:'a -> f:('a -> Record.t -> 'a) -> ('a, string) result
(** Folds [f] over the remaining records. *)

(** {1 Writing} *)

type writer

val writer_to_channel : format -> out_channel -> writer
(** Emits the header immediately. The channel is not closed (nor
    flushed) by the writer; call [flush] on completion. *)

val write : writer -> Record.t -> (unit, string) result
(** Appends a record; rejects invalid fields and arrivals earlier than
    the previous record's. *)
