(** Shared security-analysis vocabulary: vulnerability kinds, findings and
    reports, the tool interface, resource budgets and the per-file result
    cache.  [Json] is the leaf [json] library, re-exported so reports and
    their consumers name one encoder. *)

module Budget = Budget
module Cache = Cache
module Context = Context
module Deadline = Deadline
module Json = Json
module Report = Report
module Tool = Tool
module Vuln = Vuln
