(** Uniform analyzer interface: the evaluation harness drives phpSAFE, RIPS
    and Pixy through this record (paper §IV.B step 4). *)

(** First-class analyzer, convenient for lists of tools. *)
type t = {
  name : string;
  analyze_project : Phplang.Project.t -> Report.result;
}
