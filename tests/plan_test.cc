// Planner and plan-cache tests: kAuto must return exactly the match set of
// every forced algorithm × scheme combination (the plan layer may pick the
// winner, never change the answer); executed plans must account for the whole
// run in their per-step stats; and cached plans must be invalidated by any
// catalog change (quarantine, re-materialization) that could shift the
// decision.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "bench/workloads.h"
#include "core/engine.h"
#include "plan/algorithm.h"
#include "plan/physical_plan.h"
#include "plan/plan_cache.h"
#include "storage/materialized_view.h"
#include "tests/test_util.h"
#include "tpq/pattern.h"
#include "util/fault_injection.h"
#include "util/rng.h"

namespace viewjoin {
namespace {

using bench::BenchContext;
using bench::Combo;
using bench::ParseQuery;
using bench::QuerySpec;
using core::Algorithm;
using core::Engine;
using core::RunOptions;
using core::RunResult;
using storage::MaterializedView;
using storage::Scheme;
using testing::MustParse;
using tpq::TreePattern;

std::string TempPath(const std::string& name) {
  return std::string(::testing::TempDir()) + name;
}

TEST(ParseHelpersTest, AlgorithmNamesRoundTrip) {
  for (Algorithm a : {Algorithm::kTwigStack, Algorithm::kViewJoin,
                      Algorithm::kInterJoin, Algorithm::kAuto}) {
    auto parsed = plan::ParseAlgorithm(AlgorithmName(a));
    ASSERT_TRUE(parsed.has_value()) << AlgorithmName(a);
    EXPECT_EQ(*parsed, a);
  }
  EXPECT_FALSE(plan::ParseAlgorithm("").has_value());
  EXPECT_FALSE(plan::ParseAlgorithm("vj").has_value());
  EXPECT_FALSE(plan::ParseAlgorithm("TwigStack").has_value());
}

TEST(ParseHelpersTest, SchemeNamesRoundTrip) {
  for (Scheme s : {Scheme::kElement, Scheme::kTuple, Scheme::kLinkedElement,
                   Scheme::kLinkedElementPartial}) {
    auto parsed = storage::ParseScheme(SchemeName(s));
    ASSERT_TRUE(parsed.has_value()) << SchemeName(s);
    EXPECT_EQ(*parsed, s);
  }
  EXPECT_FALSE(storage::ParseScheme("").has_value());
  EXPECT_FALSE(storage::ParseScheme("le").has_value());
  EXPECT_FALSE(storage::ParseScheme("LEp").has_value());
}

// kAuto must agree with every forced combination on every workload query:
// the planner picks among equivalent strategies, so whatever it chooses the
// match set (count and hash) is pinned by the forced runs.
TEST(PlannerEquivalenceTest, AutoMatchesEveryForcedComboOnXmark) {
  auto context = BenchContext::Xmark(0.3);
  for (const QuerySpec& spec : bench::XmarkQueries()) {
    TreePattern query = ParseQuery(spec.xpath);
    std::vector<TreePattern> split = bench::PairViews(query);
    // Materialize every scheme so the planner has real twins to price.
    for (Scheme s : {Scheme::kElement, Scheme::kTuple, Scheme::kLinkedElement,
                     Scheme::kLinkedElementPartial}) {
      context->Views(split, s);
    }
    RunResult reference = context->Run(
        query, context->Views(split, Scheme::kLinkedElement),
        {Algorithm::kAuto, Scheme::kLinkedElement}, algo::OutputMode::kMemory,
        /*repeats=*/1);
    ASSERT_TRUE(reference.ok) << spec.name << ": " << reference.error;
    EXPECT_NE(reference.plan.algorithm, Algorithm::kAuto) << spec.name;
    // IJ only binds path queries over tuple path views.
    std::vector<Combo> combos =
        spec.is_path ? bench::AllCombos() : bench::ListCombos();
    for (const Combo& combo : combos) {
      RunResult forced = context->Run(
          query, context->Views(split, combo.scheme), combo,
          algo::OutputMode::kMemory, /*repeats=*/1);
      ASSERT_TRUE(forced.ok)
          << spec.name << " " << combo.Label() << ": " << forced.error;
      EXPECT_EQ(forced.match_count, reference.match_count)
          << spec.name << " " << combo.Label();
      EXPECT_EQ(forced.result_hash, reference.result_hash)
          << spec.name << " " << combo.Label();
    }
  }
}

// The acceptance contract of RunResult::plan: the per-step stats columns sum
// exactly to the run totals, in memory and in disk mode, for forced and
// planned algorithms alike.
TEST(PlanStepStatsTest, StepColumnsSumToRunTotals) {
  util::Rng rng(17);
  xml::Document doc = testing::RandomDoc(&rng, 2000, {"a", "b", "c", "d"});
  Engine engine(&doc, TempPath("plan_sums.db"));
  TreePattern query = MustParse("//a//b[//c]//d");
  std::vector<const MaterializedView*> views = {
      engine.AddView("//a//b", Scheme::kLinkedElement),
      engine.AddView("//c", Scheme::kLinkedElement),
      engine.AddView("//d", Scheme::kLinkedElement),
  };
  for (Algorithm algorithm :
       {Algorithm::kTwigStack, Algorithm::kViewJoin, Algorithm::kAuto}) {
    for (algo::OutputMode mode :
         {algo::OutputMode::kMemory, algo::OutputMode::kDisk}) {
      RunOptions run;
      run.algorithm = algorithm;
      run.output_mode = mode;
      RunResult r = engine.Execute(query, views, run);
      ASSERT_TRUE(r.ok) << r.error;
      ASSERT_FALSE(r.plan.steps.empty());
      plan::StepStats sum;
      for (const plan::PlanStep& step : r.plan.steps) sum += step.stats;
      EXPECT_NEAR(sum.elapsed_ms, r.total_ms, 1e-9)
          << AlgorithmName(algorithm) << " " << r.plan.text;
      EXPECT_EQ(sum.pages_read, r.io.pages_read) << AlgorithmName(algorithm);
      EXPECT_EQ(sum.entries_advanced, r.stats.entries_scanned)
          << AlgorithmName(algorithm);
      EXPECT_EQ(sum.pointer_jumps, r.stats.pointer_jumps)
          << AlgorithmName(algorithm);
    }
  }
}

// Same contract on a skip-heavy run: a highly selective query over LE views
// makes ViewJoin skip via pointer jumps and galloping seeks rather than
// scan. Gallop *probes* are real work — each touches a fence key or an
// entry — so they must land in entries_scanned exactly like stepped-over
// entries, and the per-step columns must still reconcile to the totals.
TEST(PlanStepStatsTest, GallopProbesAreAccountedOnSkipHeavyRuns) {
  xml::Document doc;
  doc.StartElement("r");
  // 3000 a(b) groups; only the last few contain the d the query needs, so
  // evaluation leaps over nearly the whole b list.
  for (int i = 0; i < 3000; ++i) {
    doc.StartElement("a");
    doc.StartElement("b");
    if (i >= 2995) {
      doc.StartElement("d");
      doc.EndElement();
    }
    doc.EndElement();
    doc.EndElement();
  }
  doc.EndElement();
  Engine engine(&doc, TempPath("plan_skip_sums.db"));
  TreePattern query = MustParse("//a//b//d");
  std::vector<const MaterializedView*> views = {
      engine.AddView("//a//b", Scheme::kLinkedElement),
      engine.AddView("//d", Scheme::kLinkedElement),
  };
  RunOptions run;
  run.algorithm = Algorithm::kViewJoin;
  RunResult r = engine.Execute(query, views, run);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.match_count, 5u);
  EXPECT_GT(r.stats.pointer_jumps, 0u) << r.plan.text;
  plan::StepStats sum;
  for (const plan::PlanStep& step : r.plan.steps) sum += step.stats;
  EXPECT_EQ(sum.entries_advanced, r.stats.entries_scanned);
  EXPECT_EQ(sum.pointer_jumps, r.stats.pointer_jumps);
  EXPECT_EQ(sum.pages_read, r.io.pages_read);
}

TEST(PlanCacheTest, RepeatedQueriesHitTheCache) {
  xml::Document doc = testing::MakeDoc("r(a(b(c) b) a(b(c c)))");
  Engine engine(&doc, TempPath("plan_cache_hit.db"));
  std::vector<const MaterializedView*> views = {
      engine.AddView("//a//b", Scheme::kLinkedElement),
      engine.AddView("//c", Scheme::kLinkedElement),
  };
  TreePattern query = MustParse("//a//b//c");
  RunOptions run;
  run.algorithm = Algorithm::kAuto;
  RunResult first = engine.Execute(query, views, run);
  ASSERT_TRUE(first.ok) << first.error;
  EXPECT_FALSE(first.plan.from_cache);
  RunResult second = engine.Execute(query, views, run);
  ASSERT_TRUE(second.ok) << second.error;
  EXPECT_TRUE(second.plan.from_cache);
  EXPECT_EQ(second.plan.algorithm, first.plan.algorithm);
  EXPECT_EQ(second.match_count, first.match_count);
  EXPECT_GE(engine.plan_cache()->hits(), 1u);
  // A different forced algorithm is a different environment, not a stale hit.
  RunOptions ts;
  ts.algorithm = Algorithm::kTwigStack;
  RunResult other = engine.Execute(query, views, ts);
  ASSERT_TRUE(other.ok) << other.error;
  EXPECT_FALSE(other.plan.from_cache);
}

// Quarantining a view and re-materializing its replacement both bump the
// catalog version, so the next query must re-plan instead of reusing the
// pre-fault plan (which may name the quarantined view).
TEST(PlanCacheTest, QuarantineAndRematerializationInvalidate) {
  util::Rng rng(11);
  xml::Document doc = testing::RandomDoc(&rng, 600, {"a", "b", "c"});
  TreePattern query = MustParse("//a//b//c");
  util::ScopedFaultInjection fi;
  Engine engine(&doc, TempPath("plan_cache_inval.db"));
  const MaterializedView* ab =
      engine.AddView("//a//b", Scheme::kLinkedElement);
  fi->ArmWriteFault(util::WriteFault::kBitFlip, /*nth=*/1, /*count=*/1);
  const MaterializedView* c = engine.AddView("//c", Scheme::kLinkedElement);

  // Clean pass over a healthy twin store to pin the expected answer.
  RunResult clean;
  {
    util::ScopedFaultInjection off;
    Engine reference(&doc, TempPath("plan_cache_inval_ref.db"));
    clean = reference.Execute(query,
                              {reference.AddView("//a//b",
                                                 Scheme::kLinkedElement),
                               reference.AddView("//c",
                                                 Scheme::kLinkedElement)});
    ASSERT_TRUE(clean.ok) << clean.error;
  }

  const uint64_t epoch_before = engine.catalog()->epoch();
  RunResult faulted = engine.Execute(query, {ab, c});
  ASSERT_TRUE(faulted.ok) << faulted.error;
  EXPECT_TRUE(faulted.degraded);
  ASSERT_FALSE(faulted.quarantined_views.empty());
  EXPECT_EQ(faulted.result_hash, clean.result_hash);
  EXPECT_FALSE(faulted.plan.from_cache);
  // Quarantine + replacement re-materialization moved the catalog epoch.
  EXPECT_GT(engine.catalog()->epoch(), epoch_before);

  // The cached plan predates the quarantine: it must NOT be served again.
  RunResult after = engine.Execute(query, {ab, c});
  ASSERT_TRUE(after.ok) << after.error;
  EXPECT_FALSE(after.plan.from_cache);
  EXPECT_FALSE(after.degraded);
  EXPECT_EQ(after.result_hash, clean.result_hash);

  // With the catalog now stable the re-plan is reusable...
  RunResult warm = engine.Execute(query, {ab, c});
  ASSERT_TRUE(warm.ok) << warm.error;
  EXPECT_TRUE(warm.plan.from_cache);
  EXPECT_EQ(warm.result_hash, clean.result_hash);

  // ...until any new materialization bumps the version again.
  engine.AddView("//a//b", Scheme::kTuple);
  RunResult remat = engine.Execute(query, {ab, c});
  ASSERT_TRUE(remat.ok) << remat.error;
  EXPECT_FALSE(remat.plan.from_cache);
  EXPECT_EQ(remat.result_hash, clean.result_hash);
}

}  // namespace
}  // namespace viewjoin
