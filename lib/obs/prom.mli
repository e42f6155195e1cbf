(** Prometheus text exposition (format 0.0.4) for the observability
    layer: labeled samples, one per line.  Names are sanitized to the
    legal character set; label values use the format's backslash
    escaping, with an exact inverse for round-trip testing. *)

type sample = {
  s_name : string;  (** sanitized on render *)
  s_labels : (string * string) list;  (** values escaped on render *)
  s_value : float;
}

val sanitize_name : string -> string
(** Map to [[a-zA-Z_:][a-zA-Z0-9_:]*]: illegal characters (dots
    included) become ['_']. *)

val escape_label : string -> string
(** Escape backslash, double quote and newline — the three escapes the
    text format defines. *)

val unescape_label : string -> string
(** Exact inverse of {!escape_label}; unknown escape sequences keep
    their backslash literally, as Prometheus parsers do. *)

val sample_to_string : sample -> string
(** One exposition line, without the trailing newline.  Integer values
    render without an exponent so files diff cleanly. *)

val render : sample list -> string
(** All samples, one line each, newline-terminated. *)

val write : string -> sample list -> unit
(** {!render} to a file.  @raise Sys_error on I/O failure. *)
