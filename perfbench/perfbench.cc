// Serving benchmark. Runs one named workload against an in-process
// server::QueryServer, driven through server::Client (the path production
// traffic takes), checks every reply against the tpq::NaiveEvaluator oracle,
// and prints the end-to-end metrics (--trace 0) or the per-layer split
// (--trace 1). The last stdout line is one JSON object. See README.md for
// the workloads, the metrics and which layer metric should move which
// end-to-end metric.
//
//   perfbench --workload xmark_read --seed 1 --seconds 10 --trace 0
//             --scratch DIR [--span-dir DIR]

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "data/nasa_generator.h"
#include "data/xmark_generator.h"
#include "oracle_gate.h"
#include "plan/physical_plan.h"
#include "server/client.h"
#include "server/server.h"
#include "server/wire.h"
#include "span_trace.h"
#include "storage/materialized_view.h"
#include "tpq/evaluator.h"
#include "tpq/pattern.h"
#include "util/rng.h"
#include "xml/document.h"
#include "xml/parser.h"
#include "xml/writer.h"

extern char** environ;

namespace viewjoin::perfbench {
namespace {

namespace fs = std::filesystem;

// ---- Workload definitions ---------------------------------------------------

constexpr double kXmarkScale = 2.0;        // 64,787 elements
constexpr int64_t kNasaDatasets = 800;     // 241,167 elements
constexpr size_t kConnections = 2;         // load connections = server workers
constexpr size_t kServerWorkers = 2;
constexpr int kSetupRepeats = 5;           // setup_s is their median
constexpr double kUpdateBatchesPerSec = 5;
constexpr uint32_t kLabelGap = 256;
constexpr size_t kReadPoolPages = 16384;   // holds the whole view store
constexpr size_t kDiskPoolPages = 64;      // far below the store sizes
constexpr double kClientDeadlineMs = 10000;
constexpr int kTraceSlices = 6;            // alternating untraced/traced
constexpr double kSampleCapacityPerSecond = 6000;  // per query connection
constexpr double kPartSeconds = 1;         // the window is judged per part
constexpr size_t kCalmShare = 5;           // query figures use 1/5 of parts
constexpr const char* kBidderFragment =
    "<bidder><date/><time/><personref/><increase/></bidder>";

/// A query and its PairViews covering set (2-node views by depth band; the
/// strings are TreePattern::ToString() forms, so catalog lookups by pattern
/// string find them).
struct QueryDef {
  const char* name;
  const char* xpath;
  bool is_path;
  std::vector<const char*> views;
};

const std::vector<QueryDef>& XmarkQueries() {
  static const std::vector<QueryDef> defs = {
      {"Q1", "//people//person//name", true, {"//people//person", "//name"}},
      {"Q2", "//open_auctions//open_auction//bidder//increase", true,
       {"//open_auctions//open_auction", "//bidder//increase"}},
      {"Q5", "//closed_auctions//closed_auction//price", true,
       {"//closed_auctions//closed_auction", "//price"}},
      {"Q6", "//site//regions//item", true, {"//site//regions", "//item"}},
      {"Q18", "//open_auctions//open_auction//annotation//author", true,
       {"//open_auctions//open_auction", "//annotation//author"}},
      {"Q20", "//people//person//profile//interest", true,
       {"//people//person", "//profile//interest"}},
      {"Q4", "//open_auctions//open_auction[//bidder//personref]//initial",
       false,
       {"//open_auctions//open_auction", "//bidder", "//personref",
        "//initial"}},
      {"Q8", "//people//person[//profile//interest]//name", false,
       {"//people//person", "//profile", "//interest", "//name"}},
      {"Q9", "//person[//watches//watch]//emailaddress", false,
       {"//person[//watches]//emailaddress", "//watch"}},
      {"Q10", "//people//person[//profile[//education]//age]//gender", false,
       {"//people//person", "//profile", "//education", "//age", "//gender"}},
      {"Q11", "//open_auctions//open_auction[//bidder//increase]//initial",
       false,
       {"//open_auctions//open_auction", "//bidder", "//increase",
        "//initial"}},
      {"Q13", "//regions//item[//incategory]//description//parlist//listitem",
       false,
       {"//regions//item", "//incategory", "//description//parlist",
        "//listitem"}},
      {"Q14", "//item[//mailbox//mail]//description//text//keyword", false,
       {"//item[//mailbox]//description", "//mail", "//text", "//keyword"}},
      {"Q19", "//regions//item[//location]//mailbox//mail", false,
       {"//regions//item", "//location", "//mailbox", "//mail"}},
  };
  return defs;
}

const std::vector<QueryDef>& NasaQueries() {
  static const std::vector<QueryDef> defs = {
      {"N1", "//field//footnote//para", true, {"//field//footnote", "//para"}},
      {"N2", "//dataset//definition//footnote", true,
       {"//dataset//definition", "//footnote"}},
      {"N3", "//revision/creator/lastname", true,
       {"//revision/creator", "//lastname"}},
      {"N4", "//reference//journal//date//year", true,
       {"//reference//journal", "//date//year"}},
      {"N5", "//dataset[//definition/footnote]//history//revision//para",
       false,
       {"//dataset[//definition]//history", "//footnote", "//revision",
        "//para"}},
      {"N6", "//journal[//suffix][title]/date/year", false,
       {"//journal", "//suffix", "//title", "//date", "//year"}},
      {"N7", "//dataset[//field//footnote]//journal[//bibcode]//lastname",
       false,
       {"//dataset", "//field", "//footnote", "//journal", "//bibcode",
        "//lastname"}},
      {"N8", "//descriptions[//observatory]/description//para", false,
       {"//descriptions[//observatory]/description", "//para"}},
  };
  return defs;
}

struct Workload {
  const char* name;
  bool nasa;
  bool disk;    // disk doc mode and 64-page pools, far below the store size
  bool update;  // one query connection beside an open-loop update stream
};

constexpr Workload kWorkloads[] = {
    {"xmark_read", false, false, false},
    {"nasa_read", true, false, false},
    {"xmark_read_disk", false, true, false},
    {"xmark_update_disk", false, true, true},
};

/// One entry of the request mix; `query` indexes the oracle's query table.
struct RequestKind {
  server::QueryRequest request;
  size_t query = 0;
};

/// Every query x {E, LE, LE_p} x {TS, VJ, auto}, plus IJ+T for the path
/// queries. The update workload leaves out the tuple scheme: T views have no
/// delta path and are rebuilt by every batch that touches them, which the
/// gate counts as a failure.
std::vector<RequestKind> BuildMix(const std::vector<QueryDef>& defs,
                                  bool with_tuple) {
  std::vector<RequestKind> mix;
  auto add = [&](size_t q, const char* scheme, const char* algorithm) {
    RequestKind kind;
    kind.query = q;
    kind.request.query = defs[q].xpath;
    for (const char* view : defs[q].views) kind.request.views.push_back(view);
    kind.request.scheme = scheme;
    kind.request.algorithm = algorithm;
    mix.push_back(std::move(kind));
  };
  for (size_t q = 0; q < defs.size(); ++q) {
    for (const char* scheme : {"E", "LE", "LE_p"}) {
      for (const char* algorithm : {"TS", "VJ", "auto"}) {
        add(q, scheme, algorithm);
      }
    }
    if (defs[q].is_path && with_tuple) add(q, "T", "IJ");
  }
  return mix;
}

/// Independent streams derived from the one --seed argument.
uint64_t DeriveSeed(uint64_t seed, uint64_t stream) {
  util::Rng rng(seed * 0x9E3779B97F4A7C15ULL + stream);
  return rng.Next();
}

template <typename T>
void Shuffle(std::vector<T>* items, util::Rng* rng) {
  for (size_t i = items->size(); i > 1; --i) {
    std::swap((*items)[i - 1], (*items)[rng->Uniform(i)]);
  }
}

xml::Document MakeDocument(const Workload& workload, uint64_t seed) {
  if (workload.nasa) {
    data::NasaOptions options;
    options.datasets = kNasaDatasets;
    options.seed = DeriveSeed(seed, 1);
    return data::GenerateNasa(options);
  }
  data::XmarkOptions options;
  options.scale = kXmarkScale;
  options.seed = DeriveSeed(seed, 1);
  xml::Document doc = data::GenerateXmark(options);
  if (workload.update) {
    util::Status relabeled = doc.RelabelWithGap(kLabelGap);
    if (!relabeled.ok()) {
      std::fprintf(stderr, "relabel failed: %s\n", relabeled.ToString().c_str());
      std::exit(2);
    }
  }
  return doc;
}

// ---- Update plan and oracle ---------------------------------------------------

/// One batch per interval: a bidder inserted as first child of a never-reused
/// open_auction (so no label gap is split twice) and one original bidder
/// deleted from the tail of the document. Anchors come in seed order.
util::StatusOr<std::vector<server::UpdateRequest>> PlanBatches(
    const xml::Document& doc, size_t batches, uint64_t seed) {
  std::vector<uint32_t> auctions;
  for (xml::NodeId n : doc.NodesOfTag(doc.FindTag("open_auction"))) {
    auctions.push_back(doc.NodeLabel(n).start);
  }
  std::vector<uint32_t> bidders;
  for (xml::NodeId n : doc.NodesOfTag(doc.FindTag("bidder"))) {
    bidders.push_back(doc.NodeLabel(n).start);
  }
  if (batches > auctions.size() || batches > bidders.size()) {
    return util::Status::InvalidArgument(
        "the run needs " + std::to_string(batches) +
        " update anchors but the document has " +
        std::to_string(auctions.size()) + " open auctions and " +
        std::to_string(bidders.size()) + " bidders; shorten --seconds");
  }
  std::sort(auctions.begin(), auctions.end());
  std::sort(bidders.begin(), bidders.end());
  util::Rng rng(DeriveSeed(seed, 3));
  Shuffle(&auctions, &rng);
  std::vector<server::UpdateRequest> plan(batches);
  for (size_t i = 0; i < batches; ++i) {
    server::UpdateRequest::Op insert;
    insert.kind = 0;
    insert.target_tag = "open_auction";
    insert.target_start = auctions[i];
    insert.fragment = kBidderFragment;
    server::UpdateRequest::Op remove;
    remove.kind = 1;
    remove.target_tag = "bidder";
    remove.target_start = bidders[bidders.size() - 1 - i];
    plan[i].tenant = "perfbench";
    plan[i].ops = {insert, remove};
  }
  return plan;
}

/// Applies a batch to the reference document through the same Document
/// calls the engine makes, so node ids evolve identically on both sides.
util::Status ApplyToReference(xml::Document* doc,
                              const server::UpdateRequest& batch) {
  for (const server::UpdateRequest::Op& op : batch.ops) {
    xml::NodeId target =
        doc->FindByStart(doc->FindTag(op.target_tag), op.target_start);
    if (target == xml::kInvalidNode) {
      return util::Status::InvalidArgument("reference: no <" + op.target_tag +
                                           "> at " +
                                           std::to_string(op.target_start));
    }
    if (op.kind == 1) {
      util::Status deleted = doc->DeleteSubtree(target);
      if (!deleted.ok()) return deleted;
      continue;
    }
    xml::ParseResult fragment = xml::ParseDocument(op.fragment);
    if (!fragment.ok()) return util::Status::InvalidArgument(fragment.error);
    util::StatusOr<xml::NodeId> inserted = doc->InsertSubtree(
        xml::SpecFromDocument(*fragment.document), target);
    if (!inserted.ok()) return inserted.status();
  }
  return util::Status::Ok();
}

std::vector<Expected> OracleAnswers(const xml::Document& doc,
                                    const std::vector<tpq::TreePattern>& queries) {
  std::vector<Expected> answers;
  for (const tpq::TreePattern& query : queries) {
    tpq::HashingSink sink;
    tpq::NaiveEvaluator(doc, query).Evaluate(&sink);
    answers.push_back({sink.count(), sink.hash()});
  }
  return answers;
}

// ---- Measurements --------------------------------------------------------------

/// One verified query reply, kept small because a run holds tens of
/// thousands of them.
struct QuerySample {
  uint32_t send_us = 0;  // send time in microseconds after the window start
  float latency_ms = 0;  // client-observed round trip
  float server_ms = 0;   // QueryResponse.server_ms
  uint16_t kind = 0;     // index into the request mix
  uint8_t attempts = 1;  // engine retry-ladder attempts (saturating)
  bool degraded = false;
  bool traced = false;

  int64_t send_ns(int64_t start_ns) const {
    return start_ns + int64_t{send_us} * 1000;
  }
  int64_t recv_ns(int64_t start_ns) const {
    return send_ns(start_ns) + static_cast<int64_t>(latency_ms * 1e6);
  }
};

struct UpdateSample {
  int64_t due_ns = 0;
  int64_t send_ns = 0;
  int64_t recv_ns = 0;
  double server_ms = 0;
  uint64_t delta_maintained = 0;
  uint64_t fully_rebuilt = 0;
  bool traced = false;
};

/// Pass/fail bookkeeping of one thread.
struct Tally {
  uint64_t attempted = 0;  // operations sent in the timed window
  uint64_t failed = 0;     // refused, timed out, errored or transport failure
  uint64_t checked = 0;    // replies compared against the oracle
  uint64_t verified = 0;   // ... and equal to it
  uint64_t mismatched_in_flight = 0;  // unequal while a batch was in flight
  std::string first_problem;

  void Problem(const std::string& what) {
    if (first_problem.empty()) first_problem = what;
  }
  void Add(const Tally& other) {
    attempted += other.attempted;
    failed += other.failed;
    checked += other.checked;
    verified += other.verified;
    mismatched_in_flight += other.mismatched_in_flight;
    if (first_problem.empty()) first_problem = other.first_problem;
  }
};

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(values.size())));
  return values[std::min(values.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double Median(std::vector<double> values) { return Percentile(std::move(values), 0.5); }

/// Percentile of the request mix's latency distribution: every request kind
/// weighs the same however many of its samples were taken. The mix cycles
/// through every kind equally often, but a window cuts cycles short, and
/// NASA's latencies have a gap (light kinds end near 2.4 ms, heavy ones start
/// near 5.5 ms) close to the median, so a plain percentile would jump across
/// the gap with the share of samples on either side.
double MixPercentile(const std::vector<const QuerySample*>& samples,
                     size_t kinds, double p) {
  if (samples.empty()) return 0;
  std::vector<double> per_kind(kinds, 0);
  for (const QuerySample* s : samples) per_kind[s->kind] += 1;
  double total = 0;  // each kind present weighs 1 in all
  for (double count : per_kind) total += count > 0 ? 1 : 0;
  std::vector<std::pair<float, double>> weighted;  // latency, weight
  weighted.reserve(samples.size());
  for (const QuerySample* s : samples) {
    weighted.emplace_back(s->latency_ms, 1 / per_kind[s->kind]);
  }
  std::sort(weighted.begin(), weighted.end());
  double seen = 0;
  for (const auto& [latency, weight] : weighted) {
    seen += weight;
    if (seen >= p * total) return latency;
  }
  return weighted.back().first;
}

double Ms(int64_t ns) { return static_cast<double>(ns) / 1e6; }

uint64_t StoreBytes(const std::string& path) {
  uint64_t total = 0;
  for (const char* suffix : {"", ".manifest", ".doc", ".doc.manifest"}) {
    std::error_code ec;
    uintmax_t size = fs::file_size(path + suffix, ec);
    if (!ec) total += size;
  }
  return total;
}

uint64_t Refusals(const server::StatusResponse& s) {
  return s.rejected_shed + s.rejected_quota + s.rejected_draining +
         s.read_timeouts + s.frame_errors;
}

/// Clears every VIEWJOIN_* knob and pins simulated page latency off, so the
/// numbers are real I/O and never the simulated sleep.
void PinEnvironment() {
  std::vector<std::string> names;
  for (char** env = environ; *env != nullptr; ++env) {
    std::string entry = *env;
    if (entry.rfind("VIEWJOIN_", 0) == 0) {
      names.push_back(entry.substr(0, entry.find('=')));
    }
  }
  for (const std::string& name : names) ::unsetenv(name.c_str());
  ::setenv("VIEWJOIN_PAGE_READ_MICROS", "0", 1);
  ::setenv("VIEWJOIN_PAGE_READ_SLEEP", "0", 1);
}

// ---- The run ----------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string scratch;
  std::string span_dir;
  bool corrupt_oracle = false;  // negative test: the gate must trip
};

/// A served engine: what one set-up produces.
struct Instance {
  std::string dir;
  std::string store;
  std::unique_ptr<core::Engine> engine;
  std::unique_ptr<server::QueryServer> server;

  ~Instance() {
    if (server) server->Drain();
    server.reset();
    engine.reset();
    std::error_code ec;
    if (!dir.empty()) fs::remove_all(dir, ec);
  }
};

struct SetupTimes {
  double engine_open_s = 0;
  double server_start_s = 0;
  double materialize_s = 0;
  double total() const { return engine_open_s + server_start_s + materialize_s; }
};

class Bench {
 public:
  Bench(const Args& args, const Workload& workload)
      : args_(args), workload_(workload) {}

  int Run();

 private:
  std::unique_ptr<Instance> SetUp(int rep, xml::Document* doc,
                                  SetupTimes* times, SpanLog* log);
  void QueryLoop(size_t conn, uint16_t port, std::vector<QuerySample>* samples,
                 Tally* tally, SpanLog* log);
  void UpdateLoop(uint16_t port, std::vector<UpdateSample>* samples,
                  Tally* tally, SpanLog* log);
  bool TracedAt(int64_t ns) const {
    if (!args_.trace) return false;
    int64_t slice = (ns - start_ns_) * kTraceSlices / (end_ns_ - start_ns_);
    return slice % 2 == 1;
  }
  void Replay(Instance* instance, size_t epoch, Tally* tally, SpanLog* log);

  const Args& args_;
  const Workload& workload_;
  std::vector<tpq::TreePattern> queries_;
  std::vector<RequestKind> mix_;
  std::unique_ptr<EpochOracle> oracle_;
  std::vector<server::UpdateRequest> batches_;

  int64_t start_ns_ = 0;
  int64_t end_ns_ = 0;
  std::atomic<size_t> sent_{0};    // update batches handed to the socket
  std::atomic<size_t> acked_{0};   // update batches acknowledged
  std::atomic<bool> abort_{false};
  std::atomic<uint64_t> next_request_{1};

  // Set-up passes check every request once against epoch 0.
  uint64_t warm_checked_ = 0;
  uint64_t warm_verified_ = 0;
  std::string warm_mismatch_;

  // Replay (traced run) accumulators.
  struct ReplayTotals {
    size_t requests = 0;
    double resolve_cover_ms = 0, eval_segments_ms = 0, extend_output_ms = 0,
           unattributed_ms = 0, total_ms = 0, io_ms = 0;
    uint64_t entries_scanned = 0, entries_skipped = 0, pointer_jumps = 0,
             peak_buffered = 0, pages_read = 0, pool_hits = 0, pool_misses = 0;
    std::vector<double> parse_us;
  } replay_;
};

std::unique_ptr<Instance> Bench::SetUp(int rep, xml::Document* doc,
                                       SetupTimes* times, SpanLog* log) {
  auto instance = std::make_unique<Instance>();
  instance->dir = args_.scratch + "/rep" + std::to_string(rep);
  instance->store = instance->dir + "/store.db";
  std::error_code ec;
  fs::remove_all(instance->dir, ec);
  fs::create_directories(instance->dir);

  core::EngineOptions options;
  options.persistent = true;  // journaled installs, fsync per update txn
  if (workload_.disk) {
    options.doc_mode = core::DocMode::kDisk;
    options.pool_pages = kDiskPoolPages;
    options.doc_pool_pages = kDiskPoolPages;
  } else {
    options.pool_pages = kReadPoolPages;
  }
  server::ServerOptions server_options;
  server_options.workers = kServerWorkers;

  uint64_t request = next_request_++;
  ScopedSpan setup(log, "setup", -1, request);
  int64_t t0 = NowNs();
  {
    ScopedSpan span(log, "setup.engine_open", setup.index(), request);
    if (workload_.update) {
      instance->engine =
          std::make_unique<core::Engine>(doc, instance->store, options);
    } else {
      instance->engine = std::make_unique<core::Engine>(
          static_cast<const xml::Document*>(doc), instance->store, options);
    }
  }
  int64_t t1 = NowNs();
  if (workload_.disk && (instance->engine->doc_store() == nullptr ||
                           !instance->engine->doc_store_status().ok())) {
    std::fprintf(stderr, "disk doc mode is not serving: %s\n",
                 instance->engine->doc_store_status().ToString().c_str());
    return nullptr;
  }
  {
    ScopedSpan span(log, "setup.server_start", setup.index(), request);
    instance->server = std::make_unique<server::QueryServer>(
        instance->engine.get(), server_options);
    util::Status started = instance->server->Start();
    if (!started.ok()) {
      std::fprintf(stderr, "server start failed: %s\n",
                   started.ToString().c_str());
      instance->server.reset();
      return nullptr;
    }
  }
  int64_t t2 = NowNs();
  {
    // Views materialize on first use, so one pass over the request mix
    // builds every view the mix needs (and checks each request once).
    ScopedSpan span(log, "setup.materialize", setup.index(), request);
    server::Client client;
    client.set_deadline_ms(60000);
    util::Status connected =
        client.Connect("127.0.0.1", instance->server->port(), 5000);
    if (!connected.ok()) {
      std::fprintf(stderr, "connect failed: %s\n", connected.ToString().c_str());
      return nullptr;
    }
    for (const RequestKind& kind : mix_) {
      util::StatusOr<server::QueryResponse> reply = client.Query(kind.request);
      ++warm_checked_;
      if (!reply.ok() || reply->verdict != server::Verdict::kOk) {
        std::fprintf(stderr, "set-up request %s [%s %s] failed: %s\n",
                     kind.request.query.c_str(), kind.request.scheme.c_str(),
                     kind.request.algorithm.c_str(),
                     reply.ok() ? reply->error.c_str()
                                : reply.status().ToString().c_str());
        return nullptr;
      }
      if (oracle_->Accepts(kind.query, reply->match_count, reply->result_hash,
                           0, 0)) {
        ++warm_verified_;
      } else if (warm_mismatch_.empty()) {
        warm_mismatch_ = kind.request.query + " [" + kind.request.scheme +
                         " " + kind.request.algorithm + "] at set-up";
      }
    }
  }
  int64_t t3 = NowNs();
  times->engine_open_s = static_cast<double>(t1 - t0) / 1e9;
  times->server_start_s = static_cast<double>(t2 - t1) / 1e9;
  times->materialize_s = static_cast<double>(t3 - t2) / 1e9;
  return instance;
}

void Bench::QueryLoop(size_t conn, uint16_t port,
                      std::vector<QuerySample>* samples, Tally* tally,
                      SpanLog* log) {
  server::Client client;
  client.set_deadline_ms(kClientDeadlineMs);
  util::Rng rng(DeriveSeed(args_.seed, 10 + conn));
  std::vector<size_t> order(mix_.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  Shuffle(&order, &rng);
  size_t next = 0;
  while (!abort_.load()) {
    int64_t now = NowNs();
    if (now >= end_ns_) break;
    if (!client.connected()) {
      util::Status connected = client.Connect("127.0.0.1", port, 5000);
      if (!connected.ok()) {
        ++tally->attempted;
        ++tally->failed;
        tally->Problem("connect: " + connected.ToString());
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        continue;
      }
    }
    if (next == order.size()) {
      Shuffle(&order, &rng);
      next = 0;
    }
    const RequestKind& kind = mix_[order[next++]];
    const bool traced = TracedAt(now);
    const size_t lo = acked_.load();
    std::optional<util::StatusOr<server::QueryResponse>> response;
    int64_t send_ns, recv_ns;
    {
      ScopedSpan span(traced ? log : nullptr, "client.query", -1,
                      next_request_++);
      send_ns = NowNs();
      response.emplace(client.Query(kind.request));
      recv_ns = NowNs();
    }
    const util::StatusOr<server::QueryResponse>& reply = *response;
    const size_t hi = sent_.load();
    ++tally->attempted;
    if (!reply.ok()) {
      ++tally->failed;
      tally->Problem("query transport: " + reply.status().ToString());
      client.Close();
      continue;
    }
    if (reply->verdict != server::Verdict::kOk) {
      ++tally->failed;
      tally->Problem(std::string("query ") +
                     server::VerdictName(reply->verdict) + ": " + reply->error);
      continue;
    }
    ++tally->checked;
    if (!oracle_->Accepts(kind.query, reply->match_count, reply->result_hash,
                          lo, hi)) {
      if (lo < hi) ++tally->mismatched_in_flight;
      std::string want;
      for (size_t e = lo; e <= hi && e < oracle_->epochs(); ++e) {
        char entry[64];
        std::snprintf(entry, sizeof(entry), " %llu/%016llx",
                      static_cast<unsigned long long>(oracle_->At(e, kind.query).match_count),
                      static_cast<unsigned long long>(oracle_->At(e, kind.query).result_hash));
        want += entry;
      }
      char got[64];
      std::snprintf(got, sizeof(got), "%llu/%016llx",
                    static_cast<unsigned long long>(reply->match_count),
                    static_cast<unsigned long long>(reply->result_hash));
      tally->Problem("oracle mismatch: " + kind.request.query + " [" +
                     kind.request.scheme + " " + kind.request.algorithm +
                     "] got " + got + ", oracle at epochs " +
                     std::to_string(lo) + ".." + std::to_string(hi) + ":" +
                     want);
      continue;
    }
    ++tally->verified;
    QuerySample sample;
    sample.send_us = static_cast<uint32_t>((send_ns - start_ns_) / 1000);
    sample.latency_ms = static_cast<float>(Ms(recv_ns - send_ns));
    sample.kind = static_cast<uint16_t>(&kind - mix_.data());
    sample.server_ms = static_cast<float>(reply->server_ms);
    sample.attempts = static_cast<uint8_t>(std::min<uint32_t>(reply->attempts, 255));
    sample.degraded = reply->degraded;
    sample.traced = traced;
    samples->push_back(sample);
  }
}

void Bench::UpdateLoop(uint16_t port, std::vector<UpdateSample>* samples,
                       Tally* tally, SpanLog* log) {
  server::Client client;
  client.set_deadline_ms(kClientDeadlineMs);
  if (!client.Connect("127.0.0.1", port, 5000).ok()) {
    ++tally->attempted;
    ++tally->failed;
    tally->Problem("update connect failed");
    abort_.store(true);
    return;
  }
  const int64_t interval_ns =
      static_cast<int64_t>(1e9 / kUpdateBatchesPerSec);
  for (size_t i = 0; i < batches_.size() && !abort_.load(); ++i) {
    UpdateSample sample;
    sample.due_ns = start_ns_ + static_cast<int64_t>(i) * interval_ns;
    int64_t wait = sample.due_ns - NowNs();
    if (wait > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(wait));
    sample.traced = TracedAt(sample.due_ns);
    std::optional<util::StatusOr<server::UpdateResponse>> response;
    {
      ScopedSpan span(sample.traced ? log : nullptr, "client.update", -1,
                      next_request_++);
      sample.send_ns = NowNs();
      sent_.store(i + 1);
      response.emplace(client.Update(batches_[i]));
      sample.recv_ns = NowNs();
    }
    const util::StatusOr<server::UpdateResponse>& reply = *response;
    ++tally->attempted;
    // A batch whose outcome is unknown or partial breaks the epoch
    // sequence the oracle was built for, so it ends the run.
    std::string problem;
    if (!reply.ok()) {
      problem = "transport: " + reply.status().ToString();
    } else if (reply->verdict != server::Verdict::kOk) {
      problem = std::string(server::VerdictName(reply->verdict)) + ": " +
                reply->error;
    } else if (!reply->failed.empty()) {
      problem = "failed op: " + reply->failed.front();
    } else if (reply->relabeled) {
      problem = "relabeled";
    } else if (reply->fully_rebuilt > 0) {
      problem = "fully rebuilt " + std::to_string(reply->fully_rebuilt) +
                " views";
    } else if (reply->applied != batches_[i].ops.size()) {
      problem = "applied " + std::to_string(reply->applied) + " ops";
    }
    if (!problem.empty()) {
      ++tally->failed;
      tally->Problem("update batch " + std::to_string(i) + ": " + problem);
      abort_.store(true);
      return;
    }
    acked_.store(i + 1);
    sample.server_ms = reply->server_ms;
    sample.delta_maintained = reply->delta_maintained;
    sample.fully_rebuilt = reply->fully_rebuilt;
    samples->push_back(sample);
  }
}

/// Replays the request mix once in-process through Engine::Execute on the
/// served engine (warm, cold_cache = false) after load has stopped, reading
/// the per-step and per-layer counters each call returns.
void Bench::Replay(Instance* instance, size_t epoch, Tally* tally,
                   SpanLog* log) {
  core::Engine* engine = instance->engine.get();
  for (const RequestKind& kind : mix_) {
    const uint64_t request = next_request_++;
    ScopedSpan root(log, "replay.request", -1, request);
    std::optional<tpq::TreePattern> query;
    {
      ScopedSpan span(log, "tpq.parse", root.index(), request);
      int64_t t0 = NowNs();
      query = tpq::TreePattern::Parse(kind.request.query, nullptr);
      replay_.parse_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
    }
    std::optional<storage::Scheme> scheme =
        storage::ParseScheme(kind.request.scheme);
    std::optional<plan::Algorithm> algorithm =
        plan::ParseAlgorithm(kind.request.algorithm);
    std::vector<const storage::MaterializedView*> views;
    for (const std::string& pattern : kind.request.views) {
      const storage::MaterializedView* view =
          scheme ? engine->catalog()->FindView(pattern, *scheme) : nullptr;
      if (view != nullptr) views.push_back(view);
    }
    ++tally->checked;
    if (!query || !algorithm || views.size() != kind.request.views.size()) {
      tally->Problem("replay: cannot resolve " + kind.request.query);
      continue;
    }
    core::RunOptions run;
    run.algorithm = *algorithm;
    run.cold_cache = false;
    core::RunResult result;
    {
      ScopedSpan span(log, "core.execute", root.index(), request);
      result = engine->Execute(*query, views, run);
    }
    if (!result.ok ||
        !oracle_->Accepts(kind.query, result.match_count, result.result_hash,
                          epoch, epoch)) {
      tally->Problem("replay mismatch: " + kind.request.query + " [" +
                     kind.request.scheme + " " + kind.request.algorithm +
                     "] " + result.error);
      continue;
    }
    ++tally->verified;
    ++replay_.requests;
    for (const plan::PlanStep& step : result.plan.steps) {
      switch (step.kind) {
        case plan::StepKind::kResolveCover:
          replay_.resolve_cover_ms += step.stats.elapsed_ms;
          break;
        case plan::StepKind::kEvalSegments:
          replay_.eval_segments_ms += step.stats.elapsed_ms;
          break;
        case plan::StepKind::kExtendOutput:
          replay_.extend_output_ms += step.stats.elapsed_ms;
          break;
        case plan::StepKind::kSpill:
          break;
        case plan::StepKind::kVerifyFallback:
          replay_.unattributed_ms += step.stats.elapsed_ms;
          break;
      }
    }
    replay_.total_ms += result.total_ms;
    replay_.io_ms += result.io_ms;
    replay_.entries_scanned += result.stats.entries_scanned;
    replay_.entries_skipped += result.stats.entries_skipped;
    replay_.pointer_jumps += result.stats.pointer_jumps;
    replay_.peak_buffered =
        std::max(replay_.peak_buffered, result.stats.peak_buffered);
    replay_.pages_read += result.io.pages_read;
    replay_.pool_hits += result.io.pool_hits;
    replay_.pool_misses += result.io.pool_misses;
  }
}

// ---- Reporting ------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;  // sample count or base of a ratio
};

/// Which end-to-end metric each per-layer metric should move, and where
/// (printed beside the traced run's table; README.md has the same map).
const std::map<std::string, std::pair<const char*, const char*>>& LayerMap() {
  static const std::map<std::string, std::pair<const char*, const char*>> map = {
      {"server.overhead_p50_ms", {"src/server", "query_p50_ms on xmark_read; ~0 on nasa_read"}},
      {"server.overhead_p99_ms", {"src/server", "query_p99_ms on xmark_read; ~0 on nasa_read"}},
      {"server.update_overhead_ms", {"src/server", "update_p50_ms on xmark_update_disk"}},
      {"server.refused", {"src/server", "error_rate, all workloads"}},
      {"core.engine_p50_ms", {"src/core", "query_p50_ms on nasa_read"}},
      {"core.engine_p99_ms", {"src/core", "query_p99_ms on nasa_read"}},
      {"core.retry_frac", {"src/core", "error_rate, query_p99_ms on xmark_update_disk"}},
      {"core.degraded_frac", {"src/core", "error_rate, query_p99_ms on xmark_update_disk"}},
      {"core.query_during_update_p99_ms", {"src/core", "query_p99_ms on xmark_update_disk"}},
      {"plan.resolve_cover_ms", {"src/plan", "query_p50_ms on xmark_read"}},
      {"plan.cache_hit_ratio", {"src/plan", "query_p50_ms on xmark_read"}},
      {"algo.eval_segments_ms", {"src/algo", "query_p50_ms on nasa_read"}},
      {"algo.extend_output_ms", {"src/algo", "query_p50_ms on nasa_read"}},
      {"algo.unattributed_ms", {"src/core", "query_p50_ms on nasa_read"}},
      {"algo.entries_scanned_per_query", {"src/algo", "query_p50_ms on nasa_read"}},
      {"algo.entries_skipped_per_query", {"src/algo", "query_p50_ms on nasa_read"}},
      {"algo.pointer_jumps_per_query", {"src/algo", "query_p50_ms on nasa_read"}},
      {"algo.peak_buffered", {"src/algo", "query_p50_ms on nasa_read"}},
      {"storage.pages_read_per_query", {"src/storage", "query_p50/p99_ms on the disk workloads; ~0 on memory reads"}},
      {"storage.pool_hit_ratio", {"src/storage", "query_p50/p99_ms on the disk workloads"}},
      {"storage.io_ms_share", {"src/storage", "query_p50/p99_ms on the disk workloads; ~0 on memory reads"}},
      {"storage.bytes_per_update", {"src/storage", "disk_bytes_per_doc_byte on xmark_update_disk"}},
      {"view.update_engine_ms", {"src/view", "update_p50/p95_ms on xmark_update_disk"}},
      {"view.delta_maintained_per_batch", {"src/view", "update_p50/p95_ms on xmark_update_disk"}},
      {"view.fully_rebuilt", {"src/storage", "update_p50/p95_ms on xmark_update_disk"}},
      {"tpq.parse_us", {"src/tpq", "query_p50_ms on xmark_read (small)"}},
      {"setup.engine_open_s", {"src/core", "setup_s, all workloads"}},
      {"setup.materialize_s", {"src/storage", "setup_s, all workloads"}},
      {"setup.server_start_s", {"src/server", "setup_s, all workloads"}},
      {"setup.generate_s", {"inputs", "- (excluded from setup_s)"}},
      {"setup.oracle_s", {"inputs", "- (excluded from setup_s)"}},
      {"loadgen.update_late_ms_max", {"loadgen", "run invalid at the update interval"}},
      {"loadgen.tracing_overhead_frac", {"bench", "- (traced vs untraced query_qps)"}},
      {"update_p50_ms", {"end to end", "xmark_update_disk only"}},
      {"update_p95_ms", {"end to end", "xmark_update_disk only"}},
      {"error_rate", {"end to end", "all workloads"}},
  };
  return map;
}

void PrintTable(const char* title, const std::vector<Metric>& metrics,
                bool with_layers) {
  std::printf("\n%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-34s %14.6g %-6s %s", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
    if (with_layers) {
      auto it = LayerMap().find(m.name);
      if (it != LayerMap().end()) {
        std::printf("%s[%s] moves: %s", m.note.empty() ? "" : "  ",
                    it->second.first, it->second.second);
      }
    }
    std::printf("\n");
  }
}

void PrintResultLine(bool correct, uint64_t attempted, uint64_t failed,
                     const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

double PeakRssMb() {
  struct rusage usage;
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

int Bench::Run() {
  const int64_t origin_ns = NowNs();
  SpanLog main_log;
  SpanLog* log = args_.trace ? &main_log : nullptr;

  // Inputs: the document, the request mix and (update workload) the batch
  // plan, all from --seed. Not part of setup_s.
  const std::vector<QueryDef>& defs =
      workload_.nasa ? NasaQueries() : XmarkQueries();
  for (const QueryDef& def : defs) {
    std::string error;
    std::optional<tpq::TreePattern> parsed =
        tpq::TreePattern::Parse(def.xpath, &error);
    if (!parsed) {
      std::fprintf(stderr, "bad query %s: %s\n", def.xpath, error.c_str());
      return 2;
    }
    queries_.push_back(*parsed);
  }
  mix_ = BuildMix(defs, !workload_.update);
  const size_t batch_count =
      workload_.update
          ? static_cast<size_t>(args_.seconds * kUpdateBatchesPerSec)
          : 0;

  int64_t t = NowNs();
  std::unique_ptr<xml::Document> doc;
  {
    ScopedSpan span(log, "setup.generate");
    doc = std::make_unique<xml::Document>(MakeDocument(workload_, args_.seed));
  }
  double generate_s = static_cast<double>(NowNs() - t) / 1e9;
  const double doc_bytes = static_cast<double>(xml::SerializedSize(*doc));

  t = NowNs();
  {
    ScopedSpan span(log, "setup.oracle");
    oracle_ = std::make_unique<EpochOracle>(queries_.size());
    oracle_->AddEpoch(OracleAnswers(*doc, queries_));
    if (workload_.update) {
      util::StatusOr<std::vector<server::UpdateRequest>> plan =
          PlanBatches(*doc, batch_count, args_.seed);
      if (!plan.ok()) {
        std::fprintf(stderr, "%s\n", plan.status().ToString().c_str());
        return 2;
      }
      batches_ = std::move(*plan);
      // The reference copy is the generated document itself: it takes every
      // batch here, then is dropped and regenerated for the engine.
      for (const server::UpdateRequest& batch : batches_) {
        util::Status applied = ApplyToReference(doc.get(), batch);
        if (!applied.ok()) {
          std::fprintf(stderr, "%s\n", applied.ToString().c_str());
          return 2;
        }
        oracle_->AddEpoch(OracleAnswers(*doc, queries_));
      }
    }
    if (args_.corrupt_oracle) {
      for (size_t e = 0; e < oracle_->epochs(); ++e) {
        oracle_->MutableAt(e, 0).result_hash ^= 1;
      }
    }
  }
  double oracle_s = static_cast<double>(NowNs() - t) / 1e9;
  if (workload_.update) {
    doc.reset();
    doc = std::make_unique<xml::Document>(MakeDocument(workload_, args_.seed));
  }

  // Set-up, several times; the last instance serves the load.
  std::vector<SetupTimes> setups;
  std::unique_ptr<Instance> instance;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    // Hand memory freed by the previous instance (or the oracle's reference
    // document) back to the OS, so rss_mb tracks the served instance and
    // not allocator leftovers of earlier ones.
    instance.reset();
    ::malloc_trim(0);
    SetupTimes times;
    instance = SetUp(rep, doc.get(), &times, log);
    if (!instance) return 2;
    setups.push_back(times);
  }
  const uint16_t port = instance->server->port();

  auto status_now = [&]() -> std::optional<server::StatusResponse> {
    server::Client client;
    if (!client.Connect("127.0.0.1", port, 5000).ok()) return std::nullopt;
    util::StatusOr<server::StatusResponse> status = client.GetStatus();
    if (!status.ok()) return std::nullopt;
    return *status;
  };
  std::optional<server::StatusResponse> status_before = status_now();
  const uint64_t cache_hits_before = instance->engine->plan_cache()->hits();
  const uint64_t cache_misses_before = instance->engine->plan_cache()->misses();
  const uint64_t bytes_before = StoreBytes(instance->store);

  // The timed window.
  const size_t query_conns = workload_.update ? 1 : kConnections;
  std::vector<std::vector<QuerySample>> query_samples(query_conns);
  std::vector<Tally> tallies(query_conns + 1);
  std::vector<SpanLog> logs(query_conns + 1);
  std::vector<UpdateSample> update_samples;
  start_ns_ = NowNs() + 20'000'000;  // let every thread reach its loop
  end_ns_ = start_ns_ + static_cast<int64_t>(args_.seconds * 1e9);
  {
    std::vector<std::thread> threads;
    for (size_t c = 0; c < query_conns; ++c) {
      // Touch the sample buffer up front so its pages are resident before
      // the window: the benchmark's own bookkeeping then adds a fixed amount
      // to rss_mb instead of one that grows with throughput.
      query_samples[c].resize(static_cast<size_t>(
          args_.seconds * kSampleCapacityPerSecond));
      query_samples[c].clear();
      threads.emplace_back([&, c] {
        std::this_thread::sleep_for(std::chrono::nanoseconds(start_ns_ - NowNs()));
        QueryLoop(c, port, &query_samples[c], &tallies[c], &logs[c]);
      });
    }
    if (workload_.update) {
      threads.emplace_back([&] {
        UpdateLoop(port, &update_samples, &tallies[query_conns],
                   &logs[query_conns]);
      });
    }
    for (std::thread& thread : threads) thread.join();
  }
  const int64_t window_end_ns = NowNs();
  // Read before the replay and the analysis below, whose allocations are
  // the benchmark's, not the served program's.
  const double peak_rss_mb = PeakRssMb();

  std::optional<server::StatusResponse> status_after = status_now();
  const uint64_t cache_hits = instance->engine->plan_cache()->hits() - cache_hits_before;
  const uint64_t cache_misses =
      instance->engine->plan_cache()->misses() - cache_misses_before;
  const uint64_t bytes_after = StoreBytes(instance->store);

  Tally window;
  for (const Tally& tally : tallies) window.Add(tally);
  Tally replay;
  if (args_.trace && !abort_.load()) {
    Replay(instance.get(), acked_.load(), &replay, log);
  }
  instance.reset();  // drain, close, remove the store files
  const int64_t done_ns = NowNs();

  // ---- Correctness -----------------------------------------------------------
  const uint64_t checked = warm_checked_ + window.checked + replay.checked;
  const uint64_t verified = warm_verified_ + window.verified + replay.verified;
  // abort_ is set only by a failed update batch, after which the epoch
  // sequence the oracle was built for no longer holds.
  const bool correct = verified == checked && !abort_.load();
  std::printf("workload %s seed %llu: verified %llu of %llu replies against "
              "the oracle (%zu request kinds, %zu epochs)\n",
              workload_.name, static_cast<unsigned long long>(args_.seed),
              static_cast<unsigned long long>(verified),
              static_cast<unsigned long long>(checked), mix_.size(),
              oracle_->epochs());
  if (!warm_mismatch_.empty()) std::printf("  first problem: %s\n", warm_mismatch_.c_str());
  if (!window.first_problem.empty()) std::printf("  first problem: %s\n", window.first_problem.c_str());
  if (!replay.first_problem.empty()) std::printf("  first problem: %s\n", replay.first_problem.c_str());
  if (window.checked > window.verified) {
    std::printf("  %llu of the %llu mismatched replies arrived while an update "
                "batch was in flight\n",
                static_cast<unsigned long long>(window.mismatched_in_flight),
                static_cast<unsigned long long>(window.checked - window.verified));
  }

  // ---- End-to-end metrics ------------------------------------------------------
  std::vector<double> latency_ms, engine_ms, overhead_ms;
  uint64_t completed_in_window = 0;
  uint64_t traced_done = 0, untraced_done = 0;
  uint64_t retried = 0, degraded = 0, traced_samples = 0;
  for (const std::vector<QuerySample>& samples : query_samples) {
    for (const QuerySample& s : samples) {
      latency_ms.push_back(s.latency_ms);
      if (s.recv_ns(start_ns_) <= end_ns_) ++completed_in_window;
      if (s.traced) {
        ++traced_done;
      } else {
        ++untraced_done;
      }
      if (args_.trace && !s.traced) continue;
      ++traced_samples;
      engine_ms.push_back(s.server_ms);
      overhead_ms.push_back(s.latency_ms - s.server_ms);
      if (s.attempts > 1) ++retried;
      if (s.degraded) ++degraded;
    }
  }
  const double window_s = static_cast<double>(end_ns_ - start_ns_) / 1e9;
  std::vector<double> update_ms, update_overhead, update_engine, late_ms;
  double delta_maintained = 0;
  uint64_t fully_rebuilt = 0;
  for (const UpdateSample& u : update_samples) {
    update_ms.push_back(Ms(u.recv_ns - u.due_ns));
    late_ms.push_back(Ms(u.send_ns - u.due_ns));
    if (args_.trace && !u.traced) continue;
    update_overhead.push_back(Ms(u.recv_ns - u.send_ns) - u.server_ms);
    update_engine.push_back(u.server_ms);
    delta_maintained += static_cast<double>(u.delta_maintained);
    fully_rebuilt += u.fully_rebuilt;
  }
  const double late_max =
      late_ms.empty() ? 0 : *std::max_element(late_ms.begin(), late_ms.end());
  const double interval_ms = 1e3 / kUpdateBatchesPerSec;
  const bool schedule_kept = late_max < interval_ms;
  if (!schedule_kept) {
    std::printf("  invalid run: the update generator ran %.3f ms late, at or "
                "past the %.0f ms interval\n", late_max, interval_ms);
  }

  std::vector<double> setup_total, engine_open, server_start, materialize;
  for (const SetupTimes& s : setups) {
    setup_total.push_back(s.total());
    engine_open.push_back(s.engine_open_s);
    server_start.push_back(s.server_start_s);
    materialize.push_back(s.materialize_s);
  }
  // The window in one-second parts. On a shared machine, while other
  // tenants load the cores, every in-flight request waits for a core, which
  // swamps the tail of sub-millisecond queries and comes and goes within a
  // run. The end-to-end query figures therefore pool the calmest fifth of
  // the parts, calmest meaning the lowest p99 of their own. A slower engine
  // is slower in every part, so it still shows in the parts chosen; a stall
  // that hits only some seconds of a run may not. Every part is printed,
  // and the figures over all parts are printed beside them.
  const size_t parts = static_cast<size_t>(
      std::max<int64_t>(2, std::llround(args_.seconds / kPartSeconds)));
  const double part_s = window_s / static_cast<double>(parts);
  std::vector<std::vector<const QuerySample*>> part_samples(parts);
  std::vector<const QuerySample*> all_samples;
  for (const std::vector<QuerySample>& samples : query_samples) {
    for (const QuerySample& s : samples) {
      all_samples.push_back(&s);
      size_t part = static_cast<size_t>(int64_t{s.send_us} * 1000 *
                                        static_cast<int64_t>(parts) /
                                        (end_ns_ - start_ns_));
      if (part < parts) part_samples[part].push_back(&s);
    }
  }
  std::vector<double> part_p99(parts);
  std::vector<size_t> by_p99(parts);
  for (size_t part = 0; part < parts; ++part) {
    part_p99[part] = MixPercentile(part_samples[part], mix_.size(), 0.99);
    by_p99[part] = part;
  }
  std::stable_sort(by_p99.begin(), by_p99.end(), [&](size_t x, size_t y) {
    return part_p99[x] < part_p99[y];
  });
  const size_t calm_parts = std::max<size_t>(1, parts / kCalmShare);
  std::vector<bool> calm(parts, false);
  for (size_t i = 0; i < calm_parts; ++i) calm[by_p99[i]] = true;
  std::vector<const QuerySample*> calm_samples;
  std::printf("\nwindow parts of %.2f s (* = calmest fifth, used below)\n",
              part_s);
  for (size_t part = 0; part < parts; ++part) {
    const std::vector<const QuerySample*>& in_part = part_samples[part];
    if (calm[part]) {
      calm_samples.insert(calm_samples.end(), in_part.begin(), in_part.end());
    }
    std::printf("  %c part %2zu: n=%6zu p50 %.4f ms p99 %.4f ms\n",
                calm[part] ? '*' : ' ', part, in_part.size(),
                MixPercentile(in_part, mix_.size(), 0.5), part_p99[part]);
  }
  std::printf("  all parts: n=%zu p50 %.4f ms p99 %.4f ms qps %.1f\n",
              all_samples.size(), MixPercentile(all_samples, mix_.size(), 0.5),
              MixPercentile(all_samples, mix_.size(), 0.99),
              static_cast<double>(completed_in_window) / window_s);
  const std::string n_queries = "n=" + std::to_string(calm_samples.size()) +
                                " in the calmest " + std::to_string(calm_parts) +
                                " of " + std::to_string(parts) + " parts";
  const std::string n_updates = "n=" + std::to_string(update_ms.size());
  const double error_rate =
      window.attempted == 0 ? 0
                            : static_cast<double>(window.failed) /
                                  static_cast<double>(window.attempted);

  std::vector<Metric> e2e = {
      {"query_p50_ms", MixPercentile(calm_samples, mix_.size(), 0.50), "ms",
       n_queries},
      {"query_p99_ms", MixPercentile(calm_samples, mix_.size(), 0.99), "ms",
       n_queries},
      {"query_qps",
       static_cast<double>(calm_samples.size()) /
           (part_s * static_cast<double>(calm_parts)),
       "1/s", std::to_string(query_conns) + " closed-loop connections"},
      {"setup_s", Median(setup_total), "s",
       "median of " + std::to_string(setups.size()) + " set-ups"},
      {"rss_mb", peak_rss_mb, "MB", "peak resident set up to the window's end"},
      {"disk_bytes_per_doc_byte", static_cast<double>(bytes_after) / doc_bytes,
       "ratio", std::to_string(bytes_after) + " store bytes / " +
                    std::to_string(static_cast<uint64_t>(doc_bytes)) +
                    " document bytes"},
  };
  std::vector<Metric> e2e_extra = {
      {"update_p50_ms", Percentile(update_ms, 0.50), "ms", n_updates},
      {"update_p95_ms", Percentile(update_ms, 0.95), "ms", n_updates},
      {"error_rate", error_rate, "ratio",
       std::to_string(window.failed) + " of " +
           std::to_string(window.attempted) + " operations"},
  };

  if (!args_.trace) {
    PrintTable("end-to-end metrics (tracing off)", e2e, false);
    PrintTable("end-to-end metrics that do not apply to every workload",
               e2e_extra, false);
    PrintResultLine(correct && schedule_kept, window.attempted, window.failed,
                    e2e);
    return correct && schedule_kept ? 0 : 1;
  }

  // ---- Traced run: per-layer metrics ------------------------------------------
  for (SpanLog& thread_log : logs) main_log.Append(thread_log);
  const double slice_s = window_s / kTraceSlices;
  const double traced_qps =
      static_cast<double>(traced_done) / (slice_s * (kTraceSlices / 2));
  const double untraced_qps =
      static_cast<double>(untraced_done) / (slice_s * (kTraceSlices / 2));
  // Queries whose round trip overlapped an update's.
  std::vector<double> during_update;
  for (const std::vector<QuerySample>& samples : query_samples) {
    for (const QuerySample& s : samples) {
      if (!s.traced) continue;
      for (const UpdateSample& u : update_samples) {
        if (s.send_ns(start_ns_) < u.recv_ns && u.send_ns < s.recv_ns(start_ns_)) {
          during_update.push_back(s.latency_ms);
          break;
        }
      }
    }
  }
  const double replayed = std::max<double>(1, static_cast<double>(replay_.requests));
  const uint64_t refused =
      status_before && status_after
          ? Refusals(*status_after) - Refusals(*status_before)
          : 0;
  const double batches = static_cast<double>(update_samples.size());
  std::vector<Metric> layers = {
      {"server.overhead_p50_ms", Percentile(overhead_ms, 0.50), "ms",
       "n=" + std::to_string(overhead_ms.size())},
      {"server.overhead_p99_ms", Percentile(overhead_ms, 0.99), "ms", ""},
      {"server.update_overhead_ms", Median(update_overhead), "ms",
       "n=" + std::to_string(update_overhead.size())},
      {"server.refused", static_cast<double>(refused), "count",
       status_before && status_after ? "" : "status probe failed"},
      {"core.engine_p50_ms", Percentile(engine_ms, 0.50), "ms", ""},
      {"core.engine_p99_ms", Percentile(engine_ms, 0.99), "ms", ""},
      {"core.retry_frac",
       traced_samples ? static_cast<double>(retried) / traced_samples : 0,
       "ratio", ""},
      {"core.degraded_frac",
       traced_samples ? static_cast<double>(degraded) / traced_samples : 0,
       "ratio", ""},
      {"core.query_during_update_p99_ms", Percentile(during_update, 0.99), "ms",
       "n=" + std::to_string(during_update.size())},
      {"plan.resolve_cover_ms", replay_.resolve_cover_ms / replayed, "ms",
       "mean per replayed request"},
      {"plan.cache_hit_ratio",
       cache_hits + cache_misses
           ? static_cast<double>(cache_hits) /
                 static_cast<double>(cache_hits + cache_misses)
           : 0,
       "ratio", std::to_string(cache_hits) + " hits / " +
                    std::to_string(cache_hits + cache_misses) + " lookups"},
      {"algo.eval_segments_ms", replay_.eval_segments_ms / replayed, "ms", ""},
      {"algo.extend_output_ms", replay_.extend_output_ms / replayed, "ms", ""},
      {"algo.unattributed_ms", replay_.unattributed_ms / replayed, "ms", ""},
      {"algo.entries_scanned_per_query",
       static_cast<double>(replay_.entries_scanned) / replayed, "count", ""},
      {"algo.entries_skipped_per_query",
       static_cast<double>(replay_.entries_skipped) / replayed, "count", ""},
      {"algo.pointer_jumps_per_query",
       static_cast<double>(replay_.pointer_jumps) / replayed, "count", ""},
      {"algo.peak_buffered", static_cast<double>(replay_.peak_buffered),
       "count", "max over the replay"},
      {"storage.pages_read_per_query",
       static_cast<double>(replay_.pages_read) / replayed, "count", ""},
      {"storage.pool_hit_ratio",
       replay_.pool_hits + replay_.pool_misses
           ? static_cast<double>(replay_.pool_hits) /
                 static_cast<double>(replay_.pool_hits + replay_.pool_misses)
           : 1,
       "ratio", std::to_string(replay_.pool_misses) + " misses"},
      {"storage.io_ms_share",
       replay_.total_ms > 0 ? replay_.io_ms / replay_.total_ms : 0, "ratio",
       ""},
      {"storage.bytes_per_update",
       batches > 0 ? (static_cast<double>(bytes_after) -
                      static_cast<double>(bytes_before)) / batches
                   : 0,
       "B", ""},
      {"view.update_engine_ms", Median(update_engine), "ms", ""},
      {"view.delta_maintained_per_batch",
       update_engine.empty() ? 0 : delta_maintained / update_engine.size(),
       "count", ""},
      {"view.fully_rebuilt", static_cast<double>(fully_rebuilt), "count", ""},
      {"tpq.parse_us", Median(replay_.parse_us), "us", ""},
      {"setup.engine_open_s", Median(engine_open), "s", ""},
      {"setup.materialize_s", Median(materialize), "s", ""},
      {"setup.server_start_s", Median(server_start), "s", ""},
      {"setup.generate_s", generate_s, "s", ""},
      {"setup.oracle_s", oracle_s, "s", ""},
      {"loadgen.update_late_ms_max", late_max, "ms", ""},
      {"loadgen.tracing_overhead_frac",
       untraced_qps > 0 ? 1 - traced_qps / untraced_qps : 0, "ratio",
       "traced " + std::to_string(traced_qps) + " vs untraced " +
           std::to_string(untraced_qps) + " q/s"},
  };
  layers.insert(layers.end(), e2e_extra.begin(), e2e_extra.end());

  std::printf("\nself time per span (traced slices, set-up, replay)\n");
  for (const auto& [name, totals] : SelfTimes(main_log)) {
    std::printf("  %-20s calls %8llu  total %10.3f ms  self %10.3f ms\n",
                name.c_str(), static_cast<unsigned long long>(totals.calls),
                totals.total_ms, totals.self_ms);
  }
  if (!args_.span_dir.empty()) {
    std::error_code ec;
    fs::create_directories(args_.span_dir, ec);
    std::string path = args_.span_dir + "/" + workload_.name + "-seed" +
                       std::to_string(args_.seed) + ".json";
    if (WriteSpanFile(path, main_log, origin_ns, workload_.name, args_.seed)) {
      std::printf("span file: %s (%zu spans)\n", path.c_str(),
                  main_log.spans().size());
    } else {
      std::printf("span file: cannot write %s\n", path.c_str());
    }
  }
  PrintTable("per-layer metrics (traced run)", layers, true);
  std::printf("  (window %.3f s, %.3f s total)\n",
              static_cast<double>(window_end_ns - start_ns_) / 1e9,
              static_cast<double>(done_ns - origin_ns) / 1e9);
  PrintResultLine(correct && schedule_kept, window.attempted, window.failed,
                  layers);
  return correct && schedule_kept ? 0 : 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload {xmark_read|nasa_read|"
               "xmark_update_disk} --seed N --seconds S --trace 0|1 "
               "--scratch DIR [--span-dir DIR] [--corrupt-oracle]\n");
  return 2;
}

int Main(int argc, char** argv) {
  Args args;
  bool have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--corrupt-oracle") {
      args.corrupt_oracle = true;
      continue;
    }
    if (i + 1 >= argc) return Usage();
    std::string value = argv[++i];
    char* end = nullptr;
    errno = 0;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = errno == 0 && *end == '\0' && !value.empty();
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      have_seconds = errno == 0 && *end == '\0' && args.seconds > 0 &&
                     args.seconds <= 600;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage();
      args.trace = value == "1";
    } else if (flag == "--scratch") {
      args.scratch = value;
    } else if (flag == "--span-dir") {
      args.span_dir = value;
    } else {
      return Usage();
    }
  }
  if (!have_seed || !have_seconds || args.scratch.empty()) return Usage();
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) workload = &w;
  }
  if (workload == nullptr) return Usage();

  PinEnvironment();
  std::error_code ec;
  fs::create_directories(args.scratch, ec);
  std::string pattern = args.scratch + "/run-XXXXXX";
  std::vector<char> dir(pattern.begin(), pattern.end());
  dir.push_back('\0');
  if (::mkdtemp(dir.data()) == nullptr) {
    std::fprintf(stderr, "cannot create a temp directory under %s\n",
                 args.scratch.c_str());
    return 2;
  }
  args.scratch = dir.data();
  int code;
  {
    Bench bench(args, *workload);
    code = bench.Run();
  }
  fs::remove_all(args.scratch, ec);
  return code;
}

}  // namespace
}  // namespace viewjoin::perfbench

int main(int argc, char** argv) { return viewjoin::perfbench::Main(argc, argv); }
