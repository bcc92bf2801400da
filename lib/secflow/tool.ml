(** Uniform analyzer interface.  The evaluation harness drives phpSAFE, RIPS
    and Pixy through this signature, mirroring the paper's automated
    execution of each tool over all plugin files (§IV.B step 4). *)

type t = {
  name : string;
  analyze_project : Phplang.Project.t -> Report.result;
      (** analyze every file of a plugin project, return the merged result *)
}
