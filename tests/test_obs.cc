// Unit tests for the observability substrate (DESIGN.md §8): registry
// handles, log-bucketed histograms, snapshot/delta semantics, journal
// serialization + digest, and the JSON-lines exporter.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/export.h"
#include "obs/journal.h"
#include "obs/metrics.h"

namespace slb::obs {
namespace {

// ---- Counter / Gauge ---------------------------------------------------

TEST(Counter, StartsAtZeroAndAccumulates) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(Gauge, SetAndAdd) {
  Gauge g;
  g.set(10);
  g.add(-3);
  EXPECT_EQ(g.value(), 7);
  g.set(-5);
  EXPECT_EQ(g.value(), -5);
}

// ---- Histogram buckets -------------------------------------------------

TEST(Histogram, BucketIndexBoundaries) {
  EXPECT_EQ(Histogram::bucket_index(0), 0);
  EXPECT_EQ(Histogram::bucket_index(1), 1);
  EXPECT_EQ(Histogram::bucket_index(2), 2);
  EXPECT_EQ(Histogram::bucket_index(3), 2);
  EXPECT_EQ(Histogram::bucket_index(4), 3);
  EXPECT_EQ(Histogram::bucket_index(7), 3);
  EXPECT_EQ(Histogram::bucket_index(8), 4);
  EXPECT_EQ(Histogram::bucket_index(~std::uint64_t{0}),
            Histogram::kBuckets - 1);
}

TEST(Histogram, FloorAndCeilAgreeWithIndex) {
  for (int k = 0; k < Histogram::kBuckets; ++k) {
    EXPECT_EQ(Histogram::bucket_index(Histogram::bucket_floor(k)), k);
    EXPECT_EQ(Histogram::bucket_index(Histogram::bucket_ceil(k)), k);
  }
}

TEST(Histogram, CountSumMean) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  h.record(0);
  h.record(10);
  h.record(20);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.sum(), 30u);
  EXPECT_DOUBLE_EQ(h.mean(), 10.0);
}

TEST(Histogram, RecordManyEqualsRepeatedRecord) {
  Histogram many;
  Histogram repeated;
  const std::vector<std::pair<std::uint64_t, std::uint64_t>> samples = {
      {0, 3}, {1, 1}, {700, 1000}, {1u << 20, 17}, {5, 0}};
  for (const auto& [v, n] : samples) {
    many.record(v, n);
    for (std::uint64_t i = 0; i < n; ++i) repeated.record(v);
  }
  EXPECT_EQ(many.count(), 1021u);
  EXPECT_EQ(many.count(), repeated.count());
  EXPECT_EQ(many.sum(), repeated.sum());
  for (int k = 0; k < Histogram::kBuckets; ++k) {
    EXPECT_EQ(many.bucket_count(k), repeated.bucket_count(k))
        << "bucket " << k;
  }
  EXPECT_DOUBLE_EQ(many.quantile(0.5), repeated.quantile(0.5));
}

TEST(Histogram, QuantileEdgeCases) {
  Histogram h;
  // No samples: every quantile is 0, including NaN/out-of-range q.
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
  h.record(100);
  // Single sample: all quantiles land inside its bucket [64, 127].
  for (double q : {0.0, 0.5, 1.0, -3.0, 7.0,
                   std::numeric_limits<double>::quiet_NaN()}) {
    const double v = h.quantile(q);
    EXPECT_GE(v, 64.0) << "q=" << q;
    EXPECT_LE(v, 127.0) << "q=" << q;
  }
}

TEST(Histogram, QuantileOrderingAcrossBuckets) {
  Histogram h;
  for (int i = 0; i < 100; ++i) h.record(10);     // bucket [8,15]
  for (int i = 0; i < 100; ++i) h.record(1000);   // bucket [512,1023]
  EXPECT_LE(h.quantile(0.25), 15.0);
  EXPECT_GE(h.quantile(0.75), 512.0);
  EXPECT_LE(h.quantile(0.1), h.quantile(0.9));
}

TEST(Histogram, VisibleAcrossThreads) {
  // Single-writer contract: one thread records, another reads.
  Histogram h;
  std::thread writer([&h] {
    for (int i = 0; i < 10000; ++i) h.record(5);
  });
  writer.join();
  EXPECT_EQ(h.count(), 10000u);
  EXPECT_EQ(h.sum(), 50000u);
}

// ---- Registry ----------------------------------------------------------

TEST(MetricsRegistry, HandlesAreStableAndDeduplicated) {
  MetricsRegistry reg;
  Counter& a = reg.counter("x");
  Counter& b = reg.counter("x");
  EXPECT_EQ(&a, &b);
  a.inc(3);
  EXPECT_EQ(reg.counter("x").value(), 3u);
  EXPECT_EQ(reg.size(), 1u);
  reg.gauge("g");
  reg.histogram("h");
  EXPECT_EQ(reg.size(), 3u);
}

TEST(MetricsRegistry, SnapshotCapturesRegistrationOrder) {
  MetricsRegistry reg;
  reg.counter("c").inc(7);
  reg.gauge("g").set(-2);
  reg.histogram("h").record(5);
  const MetricsSnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.entries.size(), 3u);
  EXPECT_EQ(snap.entries[0].first, "c");
  EXPECT_EQ(snap.entries[1].first, "g");
  EXPECT_EQ(snap.entries[2].first, "h");
  EXPECT_EQ(snap.counter("c"), 7u);
  EXPECT_EQ(snap.find("g")->gauge, -2);
  EXPECT_EQ(snap.find("h")->count, 1u);
  EXPECT_EQ(snap.find("h")->sum, 5u);
  EXPECT_EQ(snap.find("missing"), nullptr);
}

TEST(MetricsRegistry, SnapshotTrimsTrailingZeroBuckets) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("h");
  h.record(5);  // bucket 3
  const MetricsSnapshot snap = reg.snapshot();
  const MetricValue* v = snap.find("h");
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->buckets.size(), 4u);  // buckets 0..3, trailing zeros cut
  EXPECT_EQ(v->buckets[3], 1u);
}

TEST(MetricsRegistry, DeltaSubtractsCountersAndBucketsKeepsGauges) {
  MetricsRegistry reg;
  Counter& c = reg.counter("c");
  Gauge& g = reg.gauge("g");
  Histogram& h = reg.histogram("h");
  c.inc(10);
  g.set(100);
  h.record(3);
  const MetricsSnapshot a = reg.snapshot();
  c.inc(5);
  g.set(42);
  h.record(3);
  h.record(100);
  const MetricsSnapshot b = reg.snapshot();
  const MetricsSnapshot d = delta(a, b);
  EXPECT_EQ(d.counter("c"), 5u);
  EXPECT_EQ(d.find("g")->gauge, 42);
  EXPECT_EQ(d.find("h")->count, 2u);
  EXPECT_EQ(d.find("h")->sum, 103u);
  EXPECT_EQ(d.find("h")->buckets[2], 1u);  // the second record(3)
}

// ---- JSON line builder -------------------------------------------------

TEST(JsonLine, SerializesAllTypesDeterministically) {
  const std::vector<int> xs = {1, 2, 3};
  const std::vector<double> rs = {0.5, 1.0};
  const std::vector<std::vector<int>> lists = {{0, 2}, {1}};
  const std::string line = JsonLine()
                               .str("s", "abc")
                               .num("i", std::int64_t{-4})
                               .num("u", std::uint64_t{7})
                               .real("r", 0.25)
                               .boolean("b", true)
                               .ints("xs", xs)
                               .reals("rs", rs)
                               .int_lists("ls", lists)
                               .finish();
  EXPECT_EQ(line,
            "{\"s\":\"abc\",\"i\":-4,\"u\":7,\"r\":0.25,\"b\":true,"
            "\"xs\":[1,2,3],\"rs\":[0.5,1],\"ls\":[[0,2],[1]]}");
}

TEST(JsonLine, NonFiniteDoublesBecomeNull) {
  const std::string line =
      JsonLine()
          .real("nan", std::numeric_limits<double>::quiet_NaN())
          .real("inf", std::numeric_limits<double>::infinity())
          .finish();
  EXPECT_EQ(line, "{\"nan\":null,\"inf\":null}");
}

TEST(FormatDouble, ShortestRoundTrip) {
  EXPECT_EQ(format_double(0.1), "0.1");
  EXPECT_EQ(format_double(-2.0), "-2");
  EXPECT_EQ(format_double(1e300), "1e+300");
}

// ---- DecisionJournal ---------------------------------------------------

TEST(DecisionJournal, DigestMatchesManualFnv) {
  DecisionJournal j;
  j.append("{\"a\":1}");
  j.append("{\"b\":2}");
  std::uint64_t expect = DecisionJournal::kFnvOffset;
  for (const char ch : std::string("{\"a\":1}\n{\"b\":2}\n")) {
    expect ^= static_cast<unsigned char>(ch);
    expect *= DecisionJournal::kFnvPrime;
  }
  EXPECT_EQ(j.digest(), expect);
  EXPECT_EQ(j.entries(), 2u);
}

TEST(DecisionJournal, IdenticalContentIdenticalDigest) {
  DecisionJournal a;
  DecisionJournal b;
  a.append("{\"x\":1}");
  b.append("{\"x\":1}");
  EXPECT_EQ(a.digest(), b.digest());
  EXPECT_EQ(a.digest_hex(), b.digest_hex());
  b.append("{\"y\":1}");
  EXPECT_NE(a.digest(), b.digest());
  b.clear();
  EXPECT_EQ(b.digest(), DecisionJournal::kFnvOffset);
  EXPECT_EQ(b.entries(), 0u);
}

TEST(DecisionJournal, WriteJsonlRoundTrips) {
  DecisionJournal j;
  j.append("{\"a\":1}");
  j.append("{\"b\":2}");
  const std::string path =
      testing::TempDir() + "/slb_test_journal.jsonl";
  ASSERT_TRUE(j.write_jsonl(path));
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  EXPECT_EQ(ss.str(), "{\"a\":1}\n{\"b\":2}\n");
  std::remove(path.c_str());
}

// ---- Exporter ----------------------------------------------------------

TEST(JsonlExporter, TickEmitsDeltasDumpEmitsSnapshot) {
  MetricsRegistry reg;
  Counter& c = reg.counter("c");
  const std::string path =
      testing::TempDir() + "/slb_test_export.jsonl";
  {
    JsonlExporter ex(&reg, path);
    ASSERT_TRUE(ex.ok());
    c.inc(5);
    ASSERT_TRUE(ex.tick(100));
    c.inc(2);
    ASSERT_TRUE(ex.tick(200));
    ASSERT_TRUE(ex.dump(300));
  }
  std::ifstream in(path);
  std::string l1, l2, l3;
  ASSERT_TRUE(std::getline(in, l1));
  ASSERT_TRUE(std::getline(in, l2));
  ASSERT_TRUE(std::getline(in, l3));
  EXPECT_EQ(l1, "{\"t\":100,\"kind\":\"delta\",\"metrics\":{\"c\":5}}");
  EXPECT_EQ(l2, "{\"t\":200,\"kind\":\"delta\",\"metrics\":{\"c\":2}}");
  EXPECT_EQ(l3, "{\"t\":300,\"kind\":\"snapshot\",\"metrics\":{\"c\":7}}");
  std::remove(path.c_str());
}

TEST(JsonlExporter, HistogramSparseBucketEncoding) {
  MetricsRegistry reg;
  reg.histogram("h").record(5);  // bucket 3
  const std::string line = to_json_line(reg.snapshot(), 0, "snapshot");
  EXPECT_NE(line.find("\"h\":{\"count\":1,\"sum\":5,\"buckets\":[[3,1]]}"),
            std::string::npos)
      << line;
}

TEST(JsonlExporter, BadPathReportsNotOk) {
  MetricsRegistry reg;
  JsonlExporter ex(&reg, "/nonexistent-dir-xyz/file.jsonl");
  EXPECT_FALSE(ex.ok());
  EXPECT_FALSE(ex.tick(0));
}

}  // namespace
}  // namespace slb::obs
