// Property tests for the structured JSONL run trace: every event type
// round-trips its serialized line bit-exactly (doubles included), the
// manifest round-trips, malformed lines are rejected, and two same-seed
// simulator runs produce byte-identical trace files.
#include "metrics/trace.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "deployed_test_util.h"
#include "metrics/ledger.h"
#include "metrics/registry.h"
#include "tensor/check.h"
#include "tensor/tensor.h"

namespace adafl::metrics {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::string temp_path(const char* name) {
  return ::testing::TempDir() + name;
}

void expect_roundtrip(const TraceEvent& e) {
  const std::string line = Tracer::format_line(e);
  const TraceEvent back = Tracer::parse_line(line);
  EXPECT_EQ(e, back) << line;
  // Formatting the parsed event again must reproduce the exact same bytes.
  EXPECT_EQ(line, Tracer::format_line(back));
}

TEST(TraceRoundTrip, EveryEventType) {
  expect_roundtrip(ev_round_start(3, 1.25));
  expect_roundtrip(ev_client_selected(2, 7, 0.6499999999999999, 4.0));
  expect_roundtrip(ev_client_skipped(2, 0, 0.12345678901234567));
  expect_roundtrip(ev_update_delivered(5, 3, 112168, 48, 1.7861133813858032));
  expect_roundtrip(ev_update_lost(5, 1));
  expect_roundtrip(ev_round_end(5, 8, 1.8415361195802689, true, 0.18, 0.057));
  expect_roundtrip(ev_round_end(6, 8, 1.5, false, 0.0, 0.06));
  expect_roundtrip(ev_checkpoint(5, "/tmp/ckpt/server.ckpt", 0.9));
  expect_roundtrip(ev_resume(4, 0.0));
  expect_roundtrip(ev_frame(TraceEventType::kFrameTx, 2, 1, "MODEL", 9000,
                            0.001));
  expect_roundtrip(ev_frame(TraceEventType::kFrameRx, 2, -1, "HELLO", 32,
                            0.002));
  expect_roundtrip(ev_retransmit(3, 2, 512, 1.5));
  expect_roundtrip(ev_reconnect(3, 2, 1.75));
}

// Doubles must survive serialize->parse bit-exactly across magnitudes,
// including values with no short decimal representation.
TEST(TraceRoundTrip, RandomDoublesBitExact) {
  std::mt19937_64 rng(0xADAF1u);
  std::uniform_real_distribution<double> mantissa(-1.0, 1.0);
  std::uniform_int_distribution<int> exponent(-300, 300);
  for (int i = 0; i < 3000; ++i) {
    const double score = std::ldexp(mantissa(rng), exponent(rng) / 8);
    const double t = std::ldexp(std::abs(mantissa(rng)), exponent(rng));
    TraceEvent e = ev_client_selected(i, i % 64, score, 1.0 + i % 7);
    expect_roundtrip(e);
    TraceEvent r = ev_round_end(i, i % 9, mantissa(rng) * 10.0, i % 2 == 0,
                                std::abs(mantissa(rng)), t);
    expect_roundtrip(r);
  }
}

TEST(TraceRoundTrip, StringEscaping) {
  expect_roundtrip(ev_checkpoint(1, "quote\" backslash\\ tab\t nl\n", 0.5));
  expect_roundtrip(ev_checkpoint(2, std::string("nul\0byte", 8), 0.5));
  expect_roundtrip(ev_checkpoint(3, "utf8 \xC3\xA9\xE2\x82\xAC", 0.5));
}

TEST(TraceRoundTrip, Manifest) {
  RunManifest m;
  m.producer = "test";
  m.algo = "adafl-sync";
  m.seed = 0xDEADBEEFCAFEBABEull;
  m.rounds = 40;
  m.clients = 16;
  m.start_round = 7;
  m.git = "e72987e-dirty";
  m.config = {{"dataset", "mnist"}, {"lr", "0.05"}, {"odd\"key", "v\\al"}};
  const std::string line = Tracer::format_manifest(m);
  const RunManifest back = Tracer::parse_manifest(line);
  EXPECT_EQ(m, back);
  EXPECT_EQ(line, Tracer::format_manifest(back));
}

TEST(TraceParse, RejectsMalformed) {
  EXPECT_THROW(Tracer::parse_line(""), CheckError);
  EXPECT_THROW(Tracer::parse_line("{}"), CheckError);
  EXPECT_THROW(Tracer::parse_line("not json"), CheckError);
  EXPECT_THROW(Tracer::parse_line(R"({"ev":"no_such_event","round":1})"),
               CheckError);
  EXPECT_THROW(Tracer::parse_line(R"({"ev":"round_start","bogus":1,"t":0})"),
               CheckError);
  // Truncations of a valid line never parse.
  const std::string good =
      Tracer::format_line(ev_round_end(5, 8, 1.5, true, 0.25, 0.057));
  for (std::size_t n = 0; n < good.size(); ++n)
    EXPECT_THROW(Tracer::parse_line(good.substr(0, n)), CheckError) << n;
  // Trailing garbage is rejected too.
  EXPECT_THROW(Tracer::parse_line(good + "x"), CheckError);
}

TEST(TraceFile, WriteReadBack) {
  const std::string path = temp_path("adafl_trace_rw.jsonl");
  RunManifest m;
  m.producer = "test";
  m.algo = "adafl-sync";
  m.seed = 9;
  m.rounds = 2;
  m.clients = 2;
  std::vector<TraceEvent> evs = {
      ev_round_start(1, 0.0),
      ev_client_selected(1, 0, 0.9, 2.0),
      ev_update_delivered(1, 0, 640, 20, 2.1),
      ev_round_end(1, 1, 2.1, true, 0.5, 0.01),
  };
  Tracer tr;
  tr.open(path, m);
  EXPECT_TRUE(tr.enabled());
  for (const auto& e : evs) tr.record(e);
  EXPECT_EQ(tr.events_recorded(), evs.size());
  tr.close();
  EXPECT_FALSE(tr.enabled());

  ParsedTrace parsed = read_trace_file(path);
  m.git = build_git_describe();  // stamped by the writer
  EXPECT_EQ(parsed.manifest, m);
  EXPECT_EQ(parsed.events, evs);
  std::remove(path.c_str());
}

TEST(TraceFile, SetStartRoundAfterOpen) {
  const std::string path = temp_path("adafl_trace_sr.jsonl");
  Tracer tr;
  tr.open(path, RunManifest{});
  tr.set_start_round(5);  // legal until the first flush writes the manifest
  tr.record(ev_round_start(5, 0.0));
  tr.close();
  EXPECT_EQ(read_trace_file(path).manifest.start_round, 5);
  std::remove(path.c_str());
}

TEST(TraceFile, PartialTailToleratedOnlyWhenAskedFor) {
  const std::string path = temp_path("adafl_trace_tail.jsonl");
  Tracer tr;
  tr.open(path, RunManifest{});
  tr.record(ev_round_start(1, 0.0));
  tr.record(ev_round_end(1, 2, 1.0, false, 0.0, 0.5));
  tr.close();
  // Simulate a SIGKILL mid-write: chop the file inside the last line.
  std::string bytes = slurp(path);
  bytes.resize(bytes.size() - 9);
  { std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes; }

  EXPECT_THROW(read_trace_file(path), CheckError);
  ParsedTrace parsed = read_trace_file(path, /*tolerate_partial_tail=*/true);
  ASSERT_EQ(parsed.events.size(), 1u);
  EXPECT_EQ(parsed.events[0], ev_round_start(1, 0.0));
  std::remove(path.c_str());
}

// The headline determinism property: two simulator runs with the same seed
// write byte-identical trace files (the "t" field is simulated time).
TEST(TraceDeterminism, SameSeedSimTracesAreByteIdentical) {
  const std::string pa = temp_path("adafl_trace_a.jsonl");
  const std::string pb = temp_path("adafl_trace_b.jsonl");
  const auto spec = testutil::small_task_spec();
  const auto client = testutil::small_client_config();
  const auto params = testutil::small_params();
  for (const std::string& path : {pa, pb}) {
    Tracer tr;
    RunManifest m;
    m.producer = "test";
    m.algo = "adafl-sync";
    m.seed = spec.seed;
    m.rounds = 3;
    m.clients = spec.clients;
    tr.open(path, m);
    testutil::run_simulator(spec, client, params, 3, &tr);
    tr.close();
  }
  const std::string a = slurp(pa), b = slurp(pb);
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);
  // And the stream is schema-valid with the expected per-round skeleton.
  ParsedTrace parsed = read_trace_file(pa);
  int round_starts = 0, round_ends = 0, selections = 0;
  for (const auto& e : parsed.events) {
    if (e.type == TraceEventType::kRoundStart) ++round_starts;
    if (e.type == TraceEventType::kRoundEnd) ++round_ends;
    if (e.type == TraceEventType::kClientSelected) ++selections;
  }
  EXPECT_EQ(round_starts, 3);
  EXPECT_EQ(round_ends, 3);
  EXPECT_GT(selections, 0);
  std::remove(pa.c_str());
  std::remove(pb.c_str());
}

TEST(Registry, CountersGaugesHistograms) {
  Registry reg;
  Counter& c = reg.counter("x.count");
  c.add(3);
  c.add(4);
  EXPECT_EQ(c.value(), 7);
  EXPECT_EQ(&reg.counter("x.count"), &c);  // same handle on re-lookup

  reg.gauge("x.gauge").set(2.5);
  EXPECT_EQ(reg.gauge("x.gauge").value(), 2.5);

  Histogram& h = reg.histogram("x.hist");
  h.observe(0.5);   // bucket 0: [0,1)
  h.observe(1.0);   // bucket 1: [1,2)
  h.observe(900.0); // bucket 10: [512,1024)
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.min(), 0.5);
  EXPECT_EQ(h.max(), 900.0);
  EXPECT_EQ(h.buckets()[0], 1u);
  EXPECT_EQ(h.buckets()[1], 1u);
  EXPECT_EQ(h.buckets()[10], 1u);
  EXPECT_THROW(h.observe(-1.0), CheckError);
}

TEST(Registry, HistogramPercentile) {
  Histogram empty;
  EXPECT_EQ(empty.percentile(0.5), 0.0);

  // Single sample: every percentile collapses to it (the log-bucket
  // estimate is clamped to the exact observed [min, max]).
  Histogram one;
  one.observe(7.0);
  for (double p : {0.0, 0.5, 0.99, 1.0}) EXPECT_EQ(one.percentile(p), 7.0);

  // A spread over several buckets: tails anchor on the exact min/max, the
  // estimate is monotone in p and never leaves the observed range.
  Histogram h;
  for (int i = 1; i <= 100; ++i) h.observe(static_cast<double>(i));
  EXPECT_EQ(h.percentile(0.0), 1.0);
  EXPECT_EQ(h.percentile(1.0), 100.0);
  double prev = 0.0;
  for (double p : {0.1, 0.25, 0.5, 0.9, 0.95, 0.99}) {
    const double est = h.percentile(p);
    EXPECT_GE(est, prev) << "p=" << p;
    EXPECT_GE(est, h.min());
    EXPECT_LE(est, h.max());
    prev = est;
  }
  // The p50 of uniform 1..100 lands in the [32,64) bucket; the estimate
  // must be in the right neighbourhood even with log-bucket resolution.
  EXPECT_GT(h.percentile(0.5), 30.0);
  EXPECT_LT(h.percentile(0.5), 65.0);
  // p99 must sit near the top of the range.
  EXPECT_GE(h.percentile(0.99), 64.0);

  EXPECT_THROW(h.percentile(-0.1), CheckError);
  EXPECT_THROW(h.percentile(1.5), CheckError);
}

TEST(Registry, JsonIsDeterministicAndSorted) {
  auto build = [] {
    Registry reg;
    reg.counter("b.count").add(2);
    reg.counter("a.count").add(1);
    reg.gauge("z.gauge").set(0.25);
    reg.histogram("m.hist").observe(3.0);
    return reg.to_json();
  };
  const std::string j1 = build(), j2 = build();
  EXPECT_EQ(j1, j2);
  EXPECT_LT(j1.find("\"a.count\":1"), j1.find("\"b.count\":2"));
  EXPECT_NE(j1.find("\"z.gauge\":0.25"), std::string::npos);
  EXPECT_NE(j1.find("\"m.hist\""), std::string::npos);
}

TEST(Registry, LedgerExportIsIdempotent) {
  CommLedger ledger;
  ledger.record_download(0, 1000);
  ledger.record_upload(0, 300, true);
  ledger.record_upload(1, 200, false);
  Registry reg;
  reg.export_ledger(ledger);
  reg.export_ledger(ledger);  // exporting twice must not double-count
  EXPECT_EQ(reg.counter("comm.download_bytes").value(), 1000);
  // Upload bytes count *attempted* traffic: lost uploads still burned
  // client bandwidth.
  EXPECT_EQ(reg.counter("comm.upload_bytes").value(), 500);
  EXPECT_EQ(reg.counter("comm.attempted_updates").value(), 2);
  EXPECT_EQ(reg.counter("comm.delivered_updates").value(), 1);
}

TEST(Registry, PhaseScopeRecordsOnlyWhileAttached) {
  Registry reg;
  { PhaseScope scope("work"); }  // no sink attached yet
  EXPECT_TRUE(reg.phases().empty());
  {
    PhaseSink sink(&reg);
    for (int i = 0; i < 3; ++i) {
      PhaseScope scope("work");
      tensor::FloatBuffer buf(8);  // one counted tensor allocation
      // Busy-wait (no sleep): the scope's wall time is at least 1 ms.
      const auto until =
          std::chrono::steady_clock::now() + std::chrono::milliseconds(1);
      while (std::chrono::steady_clock::now() < until) {
      }
    }
  }
  { PhaseScope scope("work"); }  // the sink detached on destruction
  const Histogram& ms = reg.histogram("profile.work_ms");
  EXPECT_EQ(ms.count(), 3u);
  EXPECT_GE(ms.sum(), 3.0);
  EXPECT_EQ(reg.counter("profile.work.tensor_allocs").value(), 3);
  const std::vector<Registry::Phase> phases = reg.phases();
  ASSERT_EQ(phases.size(), 1u);
  EXPECT_EQ(phases[0].name, "work");
  EXPECT_EQ(phases[0].calls, 3u);
  EXPECT_EQ(phases[0].ms, ms.sum());
  EXPECT_EQ(phases[0].tensor_allocs, 3);
  const std::string json = reg.to_json();
  EXPECT_NE(json.find("\"profile.work_ms\":{\"count\":3,"), std::string::npos);
  EXPECT_NE(json.find("\"profile.work.tensor_allocs\":3"), std::string::npos);
}

TEST(Registry, ConcurrentPhaseScopesAreAllCounted) {
  Registry reg;
  PhaseSink sink(&reg);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t)
    threads.emplace_back([] {
      for (int i = 0; i < 1000; ++i) {
        PhaseScope scope("work");
      }
    });
  for (auto& th : threads) th.join();
  EXPECT_EQ(reg.histogram("profile.work_ms").count(), 4000u);
  EXPECT_EQ(reg.counter("profile.work.tensor_allocs").value(), 0);
}

TEST(Registry, TracerAttachCountsEvents) {
  const std::string path = temp_path("adafl_trace_reg.jsonl");
  Registry reg;
  Tracer tr;
  tr.open(path, RunManifest{});
  tr.attach_registry(&reg);
  tr.record(ev_round_start(1, 0.0));
  tr.record(ev_update_delivered(1, 0, 4096, 10, 1.0));
  tr.record(ev_update_delivered(1, 1, 2048, 10, 1.1));
  tr.close();
  EXPECT_EQ(reg.counter("trace.events.round_start").value(), 1);
  EXPECT_EQ(reg.counter("trace.events.update_delivered").value(), 2);
  EXPECT_EQ(reg.histogram("trace.update_bytes").count(), 2u);
  EXPECT_EQ(reg.histogram("trace.update_bytes").max(), 4096.0);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace adafl::metrics
