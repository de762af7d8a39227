(** Plain-text table rendering for the experiment harness. *)

type table = {
  title : string;
  headers : string list;
  rows : string list list;
  notes : string list;  (** Free-form lines printed under the table. *)
}

val table :
  ?notes:string list -> title:string -> headers:string list ->
  string list list -> table
(** Build a table; every row must have as many cells as [headers]
    (renderers pad, they do not check). [notes] default to none. *)

val f2 : float -> string
(** Two decimals ("1.86"). *)

val pct : float -> string
(** Fraction as percentage ("62.5%"). *)

val pp_table : Format.formatter -> table -> unit
(** Column-aligned ASCII rendering. *)

val print : table -> unit
(** [pp_table] to stdout, followed by a blank line. *)

val to_csv : table -> string
(** RFC-4180-ish CSV: header row then data rows; cells containing
    commas or quotes are quoted. Notes are omitted. *)

val csv_filename : table -> string
(** A filesystem-friendly name derived from the title
    ("fig_7_speedup_over_cgl_2_threads.csv"-style). *)

val write_csv : dir:string -> table -> (string, string) result
(** Write {!to_csv} to [dir]/{!csv_filename}, creating [dir] and its
    parents; [Ok path] names the file written. [Error] carries the
    system's message when a directory or the file cannot be made. *)

val json_of_table : table -> Json.t
(** [{"title": ..., "headers": [...], "rows": [[...]], "notes": [...]}]
    — cells stay the strings the text renderer shows. *)

val to_json : table -> string
(** Compact JSON rendering of {!json_of_table}. *)
