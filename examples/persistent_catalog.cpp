// Materialize once, query many times: build a persistent view catalog, save
// its manifest, then reopen it in a fresh process state and answer queries
// without re-materializing anything.
//
//   $ ./build/examples/persistent_catalog [xmark-scale]

#include <cstdio>
#include <cstdlib>
#include <memory>

#include "algo/query_binding.h"
#include "algo/twig_stack.h"
#include "core/view_join.h"
#include "core/segmented_query.h"
#include "data/xmark_generator.h"
#include "storage/dag_walker.h"
#include "storage/materialized_view.h"
#include "tpq/pattern.h"
#include "util/timer.h"

using viewjoin::storage::Scheme;
using viewjoin::storage::ViewCatalog;

int main(int argc, char** argv) {
  double scale = argc > 1 ? std::atof(argv[1]) : 1.0;
  viewjoin::xml::Document doc =
      viewjoin::data::GenerateXmark({.scale = scale, .seed = 42});
  const char* path = "/tmp/viewjoin_persistent.db";

  // Phase 1: materialize and persist.
  {
    viewjoin::util::Timer timer;
    ViewCatalog catalog(path, 256, /*persistent=*/true);
    catalog.Materialize(doc, *viewjoin::tpq::TreePattern::Parse(
                                 "//open_auctions//open_auction"),
                        Scheme::kLinkedElement);
    catalog.Materialize(doc,
                        *viewjoin::tpq::TreePattern::Parse("//bidder//increase"),
                        Scheme::kLinkedElement);
    catalog.Materialize(doc, *viewjoin::tpq::TreePattern::Parse("//initial"),
                        Scheme::kLinkedElement);
    viewjoin::util::Status saved = catalog.Checkpoint();
    if (!saved.ok()) {
      std::fprintf(stderr, "checkpoint failed: %s\n",
                   saved.ToString().c_str());
      return 1;
    }
    std::printf("materialized 3 views in %.2f ms; catalog saved to %s\n",
                timer.ElapsedMillis(), path);
  }

  // Phase 2: reopen and query — no re-materialization.
  auto opened = ViewCatalog::Open(path, 256);
  if (!opened.ok()) {
    std::fprintf(stderr, "reopen failed: %s\n",
                 opened.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<ViewCatalog> catalog = std::move(*opened);
  std::printf("reopened catalog with %zu views\n", catalog->views().size());

  auto query = viewjoin::tpq::TreePattern::Parse(
      "//open_auctions//open_auction[//bidder//increase]//initial");
  std::vector<const viewjoin::storage::MaterializedView*> views;
  for (const auto& v : catalog->views()) views.push_back(v.get());
  auto binding = viewjoin::algo::QueryBinding::Bind(doc, *query, views);
  if (!binding.has_value()) return 1;
  viewjoin::core::SegmentedQuery sq =
      viewjoin::core::BuildSegmentedQuery(*binding);
  viewjoin::core::ViewJoin join(&*binding, &sq, catalog->pool());
  viewjoin::tpq::CountingSink sink;
  viewjoin::util::Timer timer;
  join.Evaluate(&sink);
  std::printf("ViewJoin over the reopened views: %llu matches in %.2f ms\n",
              static_cast<unsigned long long>(sink.count()),
              timer.ElapsedMillis());

  // Bonus: walk one view's DAG to regenerate its own matches (the LE scheme
  // subsumes the tuple scheme).
  viewjoin::storage::DagWalker walker(views[0], catalog->pool());
  std::printf("view %s holds %llu precomputed matches\n",
              views[0]->pattern().ToString().c_str(),
              static_cast<unsigned long long>(walker.CountMatches()));
  std::remove(path);
  std::remove((std::string(path) + ".manifest").c_str());
  return 0;
}
