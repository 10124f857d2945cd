// Incremental view maintenance (ROADMAP "Incremental view maintenance"):
// given a DocumentDelta (one subtree insert or delete, src/xml/update.h),
// re-run the view's tree pattern only against the affected ORDPATH region
// and emit tuple-level insert/delete deltas against the stored extent,
// instead of rematerializing from scratch.
//
// The affected region of an update is the inserted/deleted subtree plus the
// *spine*: its chain of surviving ancestors. A pattern-subtree result under
// a binding can only change if the binding's document subtree contains the
// region (i.e. the binding is on the spine) or the binding itself is inside
// the region — everything else evaluates identically in the old and new
// document because surviving nodes keep their ORDPATHs, labels and values.
// The evaluator walks pattern nodes down the spine, computes per-child hot
// diffs (region matches fully evaluated, spine matches recursed), and
// propagates them through the §4 semantics: cartesian products telescope
// factor by factor, optional edges re-check the ⊥-padding condition, and
// nested edges re-aggregate the affected group.
//
// Evaluation is split in two so that maintenance touches a stored extent
// only when the update can change it. EvaluateViewDiff needs the documents
// alone: it yields the candidate removed/added tuples of the region (empty
// for most views under a small update). ResolveViewDiff then settles a
// non-empty diff against the extent. Set semantics make deletions non-local
// (a tuple may be justified by a match outside the region), so candidate
// deletes are verified with a tuple-constrained derivability test against
// the new document before they are emitted. Rows are located by binary
// search in the extent's canonical order (CompareTuples), which compares
// content references by ORDPATH and so is invariant under rebinding; the
// result names the deleted row indices and each insert's canonical
// position, so appliers splice rows instead of re-sorting or re-keying the
// extent.
#ifndef SVX_MAINTENANCE_DELTA_EVALUATOR_H_
#define SVX_MAINTENANCE_DELTA_EVALUATOR_H_

#include <string>
#include <vector>

#include "src/algebra/relation.h"
#include "src/pattern/pattern.h"
#include "src/xml/update.h"

namespace svx {

/// Tuple-level delta against a stored view extent.
struct TableDelta {
  /// Rows to remove, in extent order, equal (CompareTuples) to the rows
  /// `delete_rows` names — their content references need not share the
  /// extent's Document.
  std::vector<Tuple> deletes;
  /// The same deletions as row indices into the extent the delta was
  /// computed against (ascending) — lets appliers drop rows without
  /// re-encoding the whole extent.
  std::vector<int64_t> delete_rows;
  /// Rows to add, in canonical order; content references are bound to the
  /// delta's new_doc.
  std::vector<Tuple> inserts;
  /// For each insert, the index of the first extent row that sorts after it
  /// (the extent's size if none): inserting every row before its
  /// `insert_rows` entry and dropping `delete_rows` yields the new extent in
  /// canonical order.
  std::vector<int64_t> insert_rows;
  /// True when incremental evaluation does not apply (e.g. the update
  /// touches the pattern root's binding); the caller must rematerialize.
  bool full_rebuild = false;

  bool Empty() const {
    return deletes.empty() && inserts.empty() && !full_rebuild;
  }
};

/// The candidate tuple changes of one view under one document delta,
/// evaluated from the documents alone (multisets; not yet checked against
/// the extent or for derivability elsewhere).
struct ViewDiff {
  std::vector<Tuple> removed;
  std::vector<Tuple> added;
  /// As TableDelta::full_rebuild.
  bool full_rebuild = false;

  bool Empty() const {
    return removed.empty() && added.empty() && !full_rebuild;
  }
};

/// Evaluates the diff of `pattern`/`view_name` under `delta` without the
/// stored extent. An empty diff means the extent is unchanged.
[[nodiscard]] ViewDiff EvaluateViewDiff(const Pattern& pattern,
                                        const std::string& view_name,
                                        const DocumentDelta& delta);

/// Settles `diff` (from EvaluateViewDiff for the same pattern and delta)
/// against `extent`, the view's extent over delta.old_doc in canonical
/// order without duplicates. Costs O(|diff| log |extent|) comparisons plus
/// the derivability checks; the extent is never scanned.
[[nodiscard]] TableDelta ResolveViewDiff(const Pattern& pattern,
                                         const std::string& view_name,
                                         ViewDiff diff, const Table& extent,
                                         const DocumentDelta& delta);

/// EvaluateViewDiff then ResolveViewDiff: the delta that turns
/// `old_extent` (the extent of `pattern`/`view_name` over delta.old_doc,
/// canonically ordered) into the extent over delta.new_doc. Exact:
/// applying the result reproduces full rematerialization, for every
/// pattern feature (predicates, optional edges, nested edges, all attribute
/// kinds).
[[nodiscard]] TableDelta ComputeViewDelta(const Pattern& pattern,
                                          const std::string& view_name,
                                          const Table& old_extent,
                                          const DocumentDelta& delta);

/// True iff `tuple` is derivable as a result row of `pattern` over `doc`
/// (the verification primitive behind delete emission). Cells are compared
/// by encoding; nested cells must equal the canonically-ordered group.
[[nodiscard]] bool CanDeriveTuple(const Pattern& pattern,
                                  const std::string& view_name,
                    const Document& doc, const Tuple& tuple);

}  // namespace svx

#endif  // SVX_MAINTENANCE_DELTA_EVALUATOR_H_
