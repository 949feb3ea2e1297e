(** ASCII rendering for experiment output: aligned tables and simple line
    charts, used by [ftes experiment] to print the paper's figures as
    text. *)

val render_table : header:string list -> string list list -> string
(** Aligned, pipe-separated table with a separator under the header.
    Rows shorter than the header are padded with empty cells. *)

val render_chart :
  ?width:int ->
  ?height:int ->
  ?y_label:string ->
  x_label:string ->
  xs:float list ->
  series:(string * float list) list ->
  unit ->
  string
(** [render_chart ~xs ~series ()] plots each named series against [xs]
    on a character grid. Series are drawn with distinct marker characters
    and a legend line is appended. All series must have the same length
    as [xs].
    @raise Invalid_argument on empty or mismatched inputs. *)
