// Update bench: what incremental view maintenance buys over rebuilding.
//
// Two sections, one row group each in the JSON report:
//   1. maintain — a persistent engine holds all 14 XMark queries as
//      standing views; a localized insert/delete batch (bidders entering
//      and leaving open auctions) mutates the live document and the views
//      are delta-maintained through one ApplyUpdates transaction: the
//      three bidder-area views (Q2, Q4, Q11) take a sorted merge, the
//      other eleven are recognized as untouched and cost nothing. The
//      same 14 views are then re-materialized from scratch over the same
//      mutated document — what a system without delta tracking must do,
//      since it cannot know which views an update left stale — and the
//      row records both wall times and the speedup (acceptance bar: delta
//      maintenance >= 5x faster). A verify row per query proves both
//      paths produce the identical match set (order-independent result
//      hash).
//   2. scaling — successive batches of growing op counts against the
//      delta-maintained store, recording wall time per batch and per op to
//      show maintenance cost tracks the delta, not the document.
//
// `--smoke` shrinks the document and batches for CI; `--json PATH` emits
// the machine-readable report (schema in bench/README.md).

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "bench/workloads.h"
#include "core/engine.h"
#include "data/xmark_generator.h"
#include "storage/materialized_view.h"
#include "util/check.h"
#include "util/table_printer.h"
#include "util/timer.h"
#include "xml/document.h"
#include "xml/parser.h"

namespace viewjoin::bench {
namespace {

using storage::MaterializedView;
using storage::Scheme;

constexpr const char* kDeltaPath = "/tmp/viewjoin_bench_update_delta.db";
constexpr const char* kRebuildPath = "/tmp/viewjoin_bench_update_rebuild.db";

/// Gap factor for the live document: wide enough that every insert of this
/// bench lands in an existing gap and no batch triggers a full relabel
/// (which would turn the measured delta merge into a rebuild).
constexpr uint32_t kLabelGap = 256;

void RemoveStore(const std::string& path) {
  std::remove(path.c_str());
  std::remove((path + ".manifest").c_str());
  std::remove((path + ".spill").c_str());
}

/// A new bidder subtree, shaped like the generator's: grafting one under
/// an <open_auction> touches Q2 (//open_auction//bidder//increase), Q4
/// ([//bidder//personref]//initial) and Q11 ([//bidder//increase]
/// //initial) — and no other standing view.
xml::SubtreeSpec BidderFragment() {
  xml::ParseResult parsed = xml::ParseDocument(
      "<bidder><date/><time/><personref/><increase/></bidder>");
  VJ_CHECK(parsed.ok()) << parsed.error;
  return xml::SpecFromDocument(*parsed.document);
}

/// Anchor coordinates snapshotted from the pristine relabelled document.
/// Every batch consumes fresh entries from the BACK of the document — the
/// most recently generated auctions and bidders, the hot zone of a live
/// auction site — which also keeps the changed suffix of every affected
/// list short (the store reuses encoded pages below the first changed
/// label). Each original gap is used at most once: an insert spreads its
/// labels across the gap it lands in, so reusing a gap shrinks the window
/// geometrically and the bench would measure relabel storms instead of
/// delta merges.
struct UpdatePlan {
  std::vector<uint32_t> auction_starts;  // original open auctions
  std::vector<uint32_t> bidder_starts;   // start-ordered original bidders
  size_t auction = 0;  // one past the last auction not yet given a bidder
  size_t back = 0;     // one past the last undeleted tail bidder
};

UpdatePlan SnapshotPlan(const xml::Document& doc) {
  UpdatePlan plan;
  for (xml::NodeId n : doc.NodesOfTag(doc.FindTag("open_auction"))) {
    plan.auction_starts.push_back(doc.NodeLabel(n).start);
  }
  for (xml::NodeId n : doc.NodesOfTag(doc.FindTag("bidder"))) {
    plan.bidder_starts.push_back(doc.NodeLabel(n).start);
  }
  std::sort(plan.auction_starts.begin(), plan.auction_starts.end());
  std::sort(plan.bidder_starts.begin(), plan.bidder_starts.end());
  plan.auction = plan.auction_starts.size();
  plan.back = plan.bidder_starts.size();
  return plan;
}

/// One localized batch: `inserts` bidder grafts under distinct open
/// auctions (as first child, each auction used once, newest first), then
/// `deletes` removals of original bidders from the tail of the snapshot.
std::vector<core::UpdateOp> MakeBatch(UpdatePlan* plan, size_t inserts,
                                      size_t deletes) {
  std::vector<core::UpdateOp> ops;
  for (size_t i = 0; i < inserts; ++i) {
    VJ_CHECK(plan->auction > 0)
        << "document too small for the requested batch plan";
    core::UpdateOp op;
    op.kind = core::UpdateOp::Kind::kInsertSubtree;
    op.target_tag = "open_auction";
    op.target_start = plan->auction_starts[--plan->auction];
    op.subtree = BidderFragment();
    ops.push_back(std::move(op));
  }
  for (size_t i = 0; i < deletes; ++i) {
    VJ_CHECK(plan->back > 0)
        << "document too small for the requested delete plan";
    core::UpdateOp op;
    op.kind = core::UpdateOp::Kind::kDeleteSubtree;
    op.target_tag = "bidder";
    op.target_start = plan->bidder_starts[--plan->back];
    ops.push_back(std::move(op));
  }
  return ops;
}

void BenchMaintainVsRebuild(xml::Document* doc, size_t batch_inserts,
                            size_t batch_deletes, bool smoke, UpdatePlan* plan,
                            core::Engine* delta_engine,
                            std::vector<const MaterializedView*>* delta_views,
                            JsonReport* report) {
  std::vector<QuerySpec> specs = XmarkQueries();

  // Materialize the standing views on the delta-maintained engine.
  for (const QuerySpec& spec : specs) {
    delta_views->push_back(delta_engine->AddView(spec.xpath, Scheme::kElement));
  }

  // One mixed batch, delta-maintained through a single transaction.
  std::vector<core::UpdateOp> ops =
      MakeBatch(plan, batch_inserts, batch_deletes);
  util::Timer delta_timer;
  util::StatusOr<core::UpdateResult> maintained = delta_engine->ApplyUpdates(ops);
  double delta_ms = delta_timer.ElapsedMillis();
  VJ_CHECK(maintained.ok()) << maintained.status().message();
  VJ_CHECK(maintained->failed.empty()) << maintained->failed[0];
  VJ_CHECK(!maintained->relabeled)
      << "gap exhausted: widen kLabelGap or shrink the batch";
  // The batch touches the bidder area only: Q2, Q4 and Q11 take a delta
  // merge; the other eleven standing views have empty deltas and are
  // skipped, which is itself the point — untouched views cost nothing.
  VJ_CHECK(maintained->delta_maintained == 3)
      << "expected exactly Q2/Q4/Q11 to be delta-maintained, got "
      << maintained->delta_maintained;
  VJ_CHECK(maintained->fully_rebuilt == 0);
  VJ_CHECK(maintained->quarantined == 0);

  // Full re-materialization of the same views over the same mutated
  // document, into a fresh store.
  RemoveStore(kRebuildPath);
  core::Engine rebuild_engine(const_cast<const xml::Document*>(doc),
                              kRebuildPath);
  std::vector<const MaterializedView*> rebuild_views;
  util::Timer rebuild_timer;
  for (const QuerySpec& spec : specs) {
    rebuild_views.push_back(
        rebuild_engine.AddView(spec.xpath, Scheme::kElement));
  }
  double rebuild_ms = rebuild_timer.ElapsedMillis();

  // Both paths must agree exactly: same match count, same order-independent
  // match-set hash, for every standing query.
  util::TablePrinter verify({"query", "matches", "hash_delta", "hash_rebuild"});
  for (size_t i = 0; i < specs.size(); ++i) {
    tpq::TreePattern query = ParseQuery(specs[i].xpath);
    core::RunResult via_delta =
        delta_engine->Execute(query, {(*delta_views)[i]});
    core::RunResult via_rebuild =
        rebuild_engine.Execute(query, {rebuild_views[i]});
    VJ_CHECK(via_delta.ok) << via_delta.error;
    VJ_CHECK(via_rebuild.ok) << via_rebuild.error;
    VJ_CHECK(via_delta.match_count == via_rebuild.match_count)
        << specs[i].name << ": delta-maintained view diverged";
    VJ_CHECK(via_delta.result_hash == via_rebuild.result_hash)
        << specs[i].name << ": delta-maintained view diverged";
    char delta_hex[32], rebuild_hex[32];
    std::snprintf(delta_hex, sizeof(delta_hex), "%016llx",
                  static_cast<unsigned long long>(via_delta.result_hash));
    std::snprintf(rebuild_hex, sizeof(rebuild_hex), "%016llx",
                  static_cast<unsigned long long>(via_rebuild.result_hash));
    verify.AddRow({specs[i].name, std::to_string(via_delta.match_count),
                   delta_hex, rebuild_hex});
    report->AddRow()
        .Set("section", "verify")
        .Set("query", specs[i].name)
        .Set("matches", static_cast<uint64_t>(via_delta.match_count))
        .Set("hash_delta", delta_hex)
        .Set("hash_rebuild", rebuild_hex)
        .Set("hashes_match", true);
  }

  double speedup = delta_ms > 0 ? rebuild_ms / delta_ms : 0;
  std::printf("-- maintain: %zu ops, %zu views: delta merge %.2f ms vs full "
              "rebuild %.2f ms (%.1fx) --\n",
              ops.size(), specs.size(), delta_ms, rebuild_ms, speedup);
  verify.Print();
  std::printf("\n");
  report->AddRow()
      .Set("section", "maintain")
      .Set("ops", static_cast<uint64_t>(ops.size()))
      .Set("views", static_cast<uint64_t>(specs.size()))
      .Set("delta_ms", delta_ms)
      .Set("rebuild_ms", rebuild_ms)
      .Set("speedup", speedup)
      .Set("txn_epoch", maintained->txn_epoch)
      .Set("delta_maintained",
           static_cast<uint64_t>(maintained->delta_maintained))
      .Set("fully_rebuilt", static_cast<uint64_t>(maintained->fully_rebuilt));
  if (!smoke) {
    VJ_CHECK(speedup >= 5.0)
        << "delta maintenance only " << speedup
        << "x faster than full re-materialization (acceptance bar: 5x)";
  }
}

void BenchScaling(const std::vector<size_t>& batch_sizes, UpdatePlan* plan,
                  core::Engine* delta_engine, JsonReport* report) {
  util::TablePrinter table({"batch_ops", "wall_ms", "ms_per_op", "txn_epoch"});
  for (size_t inserts : batch_sizes) {
    std::vector<core::UpdateOp> ops = MakeBatch(plan, inserts, 0);
    util::Timer timer;
    util::StatusOr<core::UpdateResult> result = delta_engine->ApplyUpdates(ops);
    double wall_ms = timer.ElapsedMillis();
    VJ_CHECK(result.ok()) << result.status().message();
    VJ_CHECK(result->failed.empty()) << result->failed[0];
    VJ_CHECK(!result->relabeled);
    double per_op = ops.empty() ? 0 : wall_ms / static_cast<double>(ops.size());
    char wall[32], per[32];
    std::snprintf(wall, sizeof(wall), "%.2f", wall_ms);
    std::snprintf(per, sizeof(per), "%.3f", per_op);
    table.AddRow({std::to_string(ops.size()), wall, per,
                  std::to_string(result->txn_epoch)});
    report->AddRow()
        .Set("section", "scaling")
        .Set("ops", static_cast<uint64_t>(ops.size()))
        .Set("wall_ms", wall_ms)
        .Set("ms_per_op", per_op)
        .Set("txn_epoch", result->txn_epoch)
        .Set("delta_maintained",
             static_cast<uint64_t>(result->delta_maintained));
  }
  std::printf("-- scaling: delta maintenance wall time per batch size --\n");
  table.Print();
  std::printf("\n");
}

void Main(int argc, char** argv) {
  bool smoke = false;
  std::vector<char*> args = {argv[0]};
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      args.push_back(argv[i]);
    }
  }
  double xmark_scale = EnvScale("VIEWJOIN_XMARK_SCALE", smoke ? 0.1 : 20.0);
  size_t batch_inserts = smoke ? 4 : 16;
  size_t batch_deletes = smoke ? 2 : 8;
  std::vector<size_t> scaling_sizes =
      smoke ? std::vector<size_t>{1, 4} : std::vector<size_t>{1, 4, 16, 48};

  JsonReport report("update");
  report.ParseArgs(static_cast<int>(args.size()), args.data());
  report.SetMeta("smoke", static_cast<uint64_t>(smoke ? 1 : 0));
  report.SetMeta("xmark_scale", xmark_scale);
  report.SetMeta("label_gap", static_cast<uint64_t>(kLabelGap));

  std::printf("Update bench: delta maintenance vs full re-materialization\n\n");

  data::XmarkOptions options;
  options.scale = xmark_scale;
  options.seed = 42;
  xml::Document doc = data::GenerateXmark(options);
  VJ_CHECK(doc.RelabelWithGap(kLabelGap).ok());

  RemoveStore(kDeltaPath);
  core::Engine delta_engine(&doc, kDeltaPath);
  std::vector<const MaterializedView*> delta_views;
  UpdatePlan plan = SnapshotPlan(doc);

  BenchMaintainVsRebuild(&doc, batch_inserts, batch_deletes, smoke, &plan,
                         &delta_engine, &delta_views, &report);
  BenchScaling(scaling_sizes, &plan, &delta_engine, &report);
  report.Write();
}

}  // namespace
}  // namespace viewjoin::bench

int main(int argc, char** argv) {
  viewjoin::bench::Main(argc, argv);
  return 0;
}
