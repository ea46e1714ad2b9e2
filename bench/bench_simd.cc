// Block cursor over the Fig. 5 path workloads: every list-scheme algorithm ×
// scheme combination (TS/VJ × LE/LE_p, plus the pointerless E baselines)
// runs over delta-varint compressed lists, decoded a page at a time and
// scanned with the SIMD kernels of storage/simd_scan.h. Each row reports
// time and page reads; the workload is I/O-bound (cold pool per repeat).
// Emits BENCH_simd.json via --json; `--smoke` shrinks the datasets for CI.

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "bench/workloads.h"
#include "core/engine.h"
#include "storage/simd_scan.h"
#include "util/check.h"
#include "util/table_printer.h"

namespace viewjoin::bench {
namespace {

bool PointerHeavy(const Combo& combo) {
  return combo.scheme == storage::Scheme::kLinkedElement ||
         combo.scheme == storage::Scheme::kLinkedElementPartial;
}

void RunDataset(const std::string& title, const std::string& dataset,
                double scale_or_sets, bool nasa,
                const std::vector<QuerySpec>& queries, int repeats,
                JsonReport* report) {
  std::unique_ptr<BenchContext> context =
      nasa ? BenchContext::Nasa(static_cast<int64_t>(scale_or_sets))
           : BenchContext::Xmark(scale_or_sets);
  PrintBanner(title, *context);

  util::TablePrinter table({"query", "combo", "matches", "ms", "pages read"});
  // IJ+T is excluded: the tuple scan has no skip primitive to exercise.
  const std::vector<Combo> combos = ListCombos();
  for (const QuerySpec& spec : queries) {
    tpq::TreePattern query = ParseQuery(spec.xpath);
    std::vector<tpq::TreePattern> split = PairViews(query);
    for (const Combo& combo : combos) {
      core::RunResult result =
          context->Run(query, context->Views(split, combo.scheme), combo,
                       algo::OutputMode::kMemory, repeats);
      VJ_CHECK(result.ok) << spec.name << " " << combo.Label() << ": "
                          << result.error;
      report->AddRow()
          .Set("dataset", dataset)
          .Set("query", spec.name)
          .Set("combo", combo.Label())
          .Set("pointer_heavy", PointerHeavy(combo))
          .Metrics(result);
      table.AddRow({spec.name, combo.Label(),
                    std::to_string(result.match_count),
                    util::FormatDouble(result.total_ms, 2),
                    std::to_string(result.io.pages_read)});
    }
  }
  table.Print();
  std::printf("\n");
}

void Main(int argc, char** argv) {
  bool smoke = false;
  std::vector<char*> rest = {argv[0]};
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      rest.push_back(argv[i]);
    }
  }
  double xmark_scale = EnvScale("VIEWJOIN_XMARK_SCALE", smoke ? 0.2 : 2.0);
  int64_t nasa_datasets = static_cast<int64_t>(
      EnvScale("VIEWJOIN_NASA_DATASETS", smoke ? 100 : 800));
  int repeats = smoke ? 2 : 3;

  JsonReport report("simd");
  report.ParseArgs(static_cast<int>(rest.size()), rest.data());
  report.SetMeta("xmark_scale", xmark_scale);
  report.SetMeta("nasa_datasets", static_cast<uint64_t>(nasa_datasets));
  report.SetMeta("repeats", repeats);
  report.SetMeta("smoke", static_cast<uint64_t>(smoke ? 1 : 0));
  report.SetMeta("simd_backend", storage::simd::BackendName());

  std::printf("Block cursor over delta-encoded lists (SIMD backend: %s)\n\n",
              storage::simd::BackendName());

  RunDataset("XMark path queries", "xmark", xmark_scale, /*nasa=*/false,
             XmarkPathQueries(), repeats, &report);
  RunDataset("NASA path queries", "nasa",
             static_cast<double>(nasa_datasets), /*nasa=*/true,
             NasaPathQueries(), repeats, &report);
  report.Write();
}

}  // namespace
}  // namespace viewjoin::bench

int main(int argc, char** argv) {
  viewjoin::bench::Main(argc, argv);
  return 0;
}
