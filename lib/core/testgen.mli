(** Rule-guided configuration test generation (paper section 8,
    "Configuration Testing"): the learned model is itself a fault model.
    Where ConfErr mutates blindly, this generator derives, for each
    learned rule, a concrete mutation of a given image that violates
    exactly that rule — producing realistic, high-coverage negative test
    cases with labeled ground truth, including the environment-side
    faults plain file fuzzing cannot express. *)

type test_case = {
  rule : Encore_rules.Template.rule;  (** the rule the case violates *)
  description : string;  (** what was mutated *)
  image : Encore_sysenv.Image.t;  (** the mutated image *)
}

val generate :
  Encore_detect.Detector.model -> Encore_sysenv.Image.t -> test_case list
(** One test case per learned rule that is applicable to the image and
    for which a violating mutation exists.  Rules whose attributes the
    image does not carry are skipped. *)

val verify_detected : Encore_detect.Engine.t -> test_case -> bool
(** Does checking the mutated image re-raise a correlation warning for
    the targeted rule?  Self-test of the generate/detect loop.  Pass
    the engine compiled from the model the cases were generated from;
    one compile serves every case. *)
