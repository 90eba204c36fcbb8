// Tests for the observability layer: trace sink, metric registry, and
// scoped profiling timers (src/obs/).
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"

namespace gdvr::obs {
namespace {

// ---------- TraceSink ----------

TEST(TraceSink, RecordsPacketsAndEvents) {
  TraceSink sink;
  const int p0 = sink.begin_packet(3, 9);
  sink.hop(3, 5, HopMode::kGreedy, 2.5, 0.0);
  sink.hop(5, 9, HopMode::kGreedy, 1.25, 0.0);
  sink.end_packet(true);
  const int p1 = sink.begin_packet(9, 3);
  sink.hop(9, 7, HopMode::kRecovery, 4.0, 0.0);
  sink.end_packet(false);

  EXPECT_EQ(p0, 0);
  EXPECT_EQ(p1, 1);
  ASSERT_EQ(sink.packets().size(), 2u);
  EXPECT_EQ(sink.packets()[0].src, 3);
  EXPECT_EQ(sink.packets()[0].dst, 9);
  EXPECT_TRUE(sink.packets()[0].delivered);
  EXPECT_TRUE(sink.packets()[0].closed);
  EXPECT_FALSE(sink.packets()[1].delivered);

  ASSERT_EQ(sink.events().size(), 3u);
  EXPECT_EQ(sink.events()[0].packet, 0);
  EXPECT_EQ(sink.events()[2].packet, 1);
  EXPECT_EQ(sink.events()[2].mode, HopMode::kRecovery);

  const auto ev0 = sink.packet_events(0);
  ASSERT_EQ(ev0.size(), 2u);
  EXPECT_EQ(ev0[0].node, 3);
  EXPECT_EQ(ev0[1].next, 9);
  EXPECT_EQ(sink.packet_events(1).size(), 1u);
}

TEST(TraceSink, DigestIsOrderSensitiveAndStable) {
  const auto record = [](TraceSink& s, bool swap_order) {
    s.begin_packet(0, 2);
    if (swap_order) {
      s.hop(1, 2, HopMode::kGreedy, 1.0);
      s.hop(0, 1, HopMode::kGreedy, 2.0);
    } else {
      s.hop(0, 1, HopMode::kGreedy, 2.0);
      s.hop(1, 2, HopMode::kGreedy, 1.0);
    }
    s.end_packet(true);
  };
  TraceSink a, b, c;
  record(a, false);
  record(b, false);
  record(c, true);
  EXPECT_EQ(a.digest(), b.digest());
  EXPECT_EQ(a.digest_hex(), b.digest_hex());
  EXPECT_NE(a.digest(), c.digest());
  EXPECT_EQ(a.digest_hex().size(), 16u);  // fixed-width lowercase hex
}

TEST(TraceSink, DigestSeesEstimateBitPatterns) {
  TraceSink a, b;
  a.begin_packet(0, 1);
  a.hop(0, 1, HopMode::kGreedy, 1.0);
  a.end_packet(true);
  b.begin_packet(0, 1);
  b.hop(0, 1, HopMode::kGreedy, 1.0 + 1e-15);
  b.end_packet(true);
  EXPECT_NE(a.digest(), b.digest());
}

TEST(TraceSink, ClearResets) {
  TraceSink sink;
  const std::uint64_t empty = sink.digest();
  sink.begin_packet(0, 1);
  sink.hop(0, 1, HopMode::kGreedy, 1.0);
  sink.end_packet(true);
  EXPECT_NE(sink.digest(), empty);
  sink.clear();
  EXPECT_TRUE(sink.events().empty());
  EXPECT_TRUE(sink.packets().empty());
  EXPECT_EQ(sink.digest(), empty);
}

TEST(TraceSink, ScopedTraceInstallsAndRestores) {
  EXPECT_EQ(trace_sink(), nullptr);
  TraceSink outer, inner;
  {
    ScopedTrace so(outer);
    EXPECT_EQ(trace_sink(), &outer);
    {
      ScopedTrace si(inner);
      EXPECT_EQ(trace_sink(), &inner);
      trace_hop(1, 2, HopMode::kRelay, 0.0);
    }
    EXPECT_EQ(trace_sink(), &outer);
    trace_hop(3, 4, HopMode::kRelay, 0.0);
  }
  EXPECT_EQ(trace_sink(), nullptr);
  trace_hop(5, 6, HopMode::kRelay, 0.0);  // no sink: must be a no-op
  ASSERT_EQ(inner.events().size(), 1u);
  EXPECT_EQ(inner.events()[0].node, 1);
  ASSERT_EQ(outer.events().size(), 1u);
  EXPECT_EQ(outer.events()[0].node, 3);
}

TEST(TraceSink, PacketTraceGuardTiesDeliveryFlag) {
  TraceSink sink;
  {
    ScopedTrace scope(sink);
    bool delivered = false;
    {
      PacketTrace guard(4, 8, &delivered);
      trace_hop(4, 8, HopMode::kGreedy, 1.0);
      delivered = true;  // set after the guard opened, read at close
    }
  }
  ASSERT_EQ(sink.packets().size(), 1u);
  EXPECT_EQ(sink.packets()[0].src, 4);
  EXPECT_TRUE(sink.packets()[0].delivered);
  EXPECT_TRUE(sink.packets()[0].closed);
  ASSERT_EQ(sink.events().size(), 1u);
  EXPECT_EQ(sink.events()[0].packet, 0);
}

TEST(TraceSink, ControlEventsOutsidePacketsUseMinusOne) {
  TraceSink sink;
  sink.set_trace_control(true);
  EXPECT_TRUE(sink.trace_control());
  sink.hop(2, 3, HopMode::kControl, 0.0, 1.5);
  ASSERT_EQ(sink.events().size(), 1u);
  EXPECT_EQ(sink.events()[0].packet, -1);
  EXPECT_DOUBLE_EQ(sink.events()[0].time, 1.5);
}

TEST(TraceSink, HopModeNames) {
  EXPECT_STREQ(hop_mode_name(HopMode::kGreedy), "greedy");
  EXPECT_STREQ(hop_mode_name(HopMode::kRecovery), "recovery");
  EXPECT_STREQ(hop_mode_name(HopMode::kRelay), "relay");
  EXPECT_STREQ(hop_mode_name(HopMode::kControl), "control");
}

// ---------- Registry ----------

TEST(Registry, AccessorsReturnStableReferences) {
  Registry reg;
  Counter& c = reg.counter("a.count");
  c.inc();
  c.inc(2);
  EXPECT_EQ(reg.counter("a.count").value(), 3u);
  EXPECT_EQ(&reg.counter("a.count"), &c);

  reg.gauge("g", 4).set(2.5);
  EXPECT_DOUBLE_EQ(reg.gauge("g", 4).value(), 2.5);
  // Same name, different node: a distinct metric.
  EXPECT_DOUBLE_EQ(reg.gauge("g", 5).value(), 0.0);

  reg.histogram("h").observe(1.0);
  reg.histogram("h").observe(3.0);
  EXPECT_EQ(reg.histogram("h").count(), 2u);
  EXPECT_DOUBLE_EQ(reg.histogram("h").mean(), 2.0);

  EXPECT_EQ(reg.size(), 4u);  // counter + 2 gauge nodes + histogram
  reg.clear();
  EXPECT_EQ(reg.size(), 0u);
}

TEST(Registry, ExportIsInsertionOrderIndependent) {
  Registry a, b;
  a.counter("x").set(1);
  a.counter("y", 2).set(7);
  a.gauge("z").set(0.5);
  a.histogram("h", 1).observe(2.0);
  // Same content, reversed insertion order.
  b.histogram("h", 1).observe(2.0);
  b.gauge("z").set(0.5);
  b.counter("y", 2).set(7);
  b.counter("x").set(1);

  std::ostringstream ja, jb, ca, cb;
  a.write_json(ja);
  b.write_json(jb);
  a.write_csv(ca);
  b.write_csv(cb);
  EXPECT_EQ(ja.str(), jb.str());
  EXPECT_EQ(ca.str(), cb.str());
}

TEST(Registry, JsonAndCsvShapes) {
  Registry reg;
  reg.counter("msgs").set(12);
  reg.gauge("load", 3).set(1.5);
  for (int i = 1; i <= 100; ++i) reg.histogram("lat").observe(i);

  std::ostringstream js;
  reg.write_json(js);
  const std::string json = js.str();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"msgs\""), std::string::npos);
  EXPECT_NE(json.find("\"value\":12"), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);

  std::ostringstream cs;
  reg.write_csv(cs);
  std::istringstream rows(cs.str());
  std::string line;
  std::getline(rows, line);
  EXPECT_EQ(line, "kind,name,node,count,value,mean,min,max,p50,p90,p99");
  std::getline(rows, line);
  EXPECT_EQ(line.rfind("counter,msgs,-1,", 0), 0u) << line;
}

// ---------- Histogram decimation ----------

TEST(Histogram, ExactUntilCapThenBoundedAndDecimated) {
  Histogram h(/*sample_cap=*/64);
  for (int i = 0; i < 63; ++i) h.observe(i);
  EXPECT_EQ(h.retained_samples(), 63u);  // exact below the cap
  EXPECT_EQ(h.sample_stride(), 1u);

  for (int i = 63; i < 10000; ++i) h.observe(i);
  EXPECT_EQ(h.count(), 10000u);                 // exact moments survive decimation
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 9999.0);
  EXPECT_LE(h.retained_samples(), 64u);
  EXPECT_GT(h.sample_stride(), 1u);

  // Percentiles stay approximately right: p50 of 0..9999 is ~5000.
  const double p50 = h.percentile(0.5);
  EXPECT_NEAR(p50, 5000.0, 1500.0);
  EXPECT_LE(h.percentile(0.0), h.percentile(1.0));
}

TEST(Histogram, EmptyPercentileIsZero) {
  Histogram h;
  EXPECT_DOUBLE_EQ(h.percentile(0.5), 0.0);
  EXPECT_EQ(h.count(), 0u);
}

// ---------- Profiling ----------

void timed_work() {
  GDVR_PROFILE_SCOPE("obs_test.timed_work");
  volatile int x = 0;
  for (int i = 0; i < 1000; ++i) x = x + i;
}

TEST(Profile, AccumulatesOnlyWhenEnabled) {
  reset_profile();
  set_profiling(false);
  timed_work();  // registers the site but must not accumulate

  std::ostringstream off;
  write_profile_report(off);
  EXPECT_EQ(off.str().find("obs_test.timed_work"), std::string::npos);

  set_profiling(true);
  timed_work();
  timed_work();
  set_profiling(false);

  std::ostringstream on;
  write_profile_report(on);
  EXPECT_NE(on.str().find("obs_test.timed_work"), std::string::npos) << on.str();

  reset_profile();
  std::ostringstream after;
  write_profile_report(after);
  EXPECT_EQ(after.str().find("obs_test.timed_work"), std::string::npos);
}

// Two scopes under one name, as a template instantiated twice produces.
void shared_name_a() { GDVR_PROFILE_SCOPE("obs_test.shared_name"); }
void shared_name_b() { GDVR_PROFILE_SCOPE("obs_test.shared_name"); }

TEST(Profile, SitesSharingANameReportAsOneRow) {
  reset_profile();
  set_profiling(true);
  for (int i = 0; i < 5; ++i) shared_name_a();
  for (int i = 0; i < 3; ++i) shared_name_b();
  set_profiling(false);

  std::ostringstream os;
  write_profile_report(os);
  std::istringstream in(os.str());
  std::string line;
  int rows = 0;
  while (std::getline(in, line)) {
    std::istringstream ls(line);
    std::string name;
    std::uint64_t calls = 0;
    if (!(ls >> name >> calls) || name != "obs_test.shared_name") continue;
    ++rows;
    EXPECT_EQ(calls, 8u) << os.str();
  }
  EXPECT_EQ(rows, 1) << os.str();
  reset_profile();
}

}  // namespace
}  // namespace gdvr::obs
