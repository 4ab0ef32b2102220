// Observability core tests: the EventRing keep-the-newest semantics the
// protocol trace inherited, the bus's category gate and sink fan-out,
// and the metrics registry (counters, field-table folding, histograms).
#include "obs/bus.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/events.hpp"
#include "obs/metrics.hpp"
#include "svm/svm.hpp"

namespace msvm::obs {
namespace {

// Ported from the protocol layer's former TraceRing test: the ring keeps
// the newest events, counts everything ever recorded, and the svm-trace
// renderer reports the overwritten prefix.
TEST(EventRing, KeepsNewestEventsAndCountsOverflow) {
  EventRing ring(4);
  for (u64 i = 0; i < 10; ++i) {
    ring.record(Event{0, i, 1, 0, EventKind::kProtoFault, 0});
  }
  EXPECT_EQ(ring.recorded(), 10u);
  EXPECT_EQ(ring.size(), 4u);

  const auto events = ring.snapshot();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events.front().a, 6u);  // oldest survivor
  EXPECT_EQ(events.back().a, 9u);   // newest

  const std::string text = svm::proto_trace_dump(ring, "| ");
  EXPECT_NE(text.find("| ... 6 earlier event(s)"), std::string::npos);
  EXPECT_NE(text.find("| page 9 write fault"), std::string::npos);
}

TEST(EventRing, DumpTruncatesToMaxEventsAndCountsTheRest) {
  EventRing ring(16);
  for (u64 i = 0; i < 8; ++i) {
    ring.record(Event{0, i, 0, 0, EventKind::kProtoFault, 0});
  }
  const std::string text = svm::proto_trace_dump(ring, "", 3);
  EXPECT_NE(text.find("... 5 earlier event(s)"), std::string::npos);
  EXPECT_EQ(text.find("page 4 "), std::string::npos);  // truncated away
  EXPECT_NE(text.find("page 5 read fault"), std::string::npos);
  EXPECT_NE(text.find("page 7 read fault"), std::string::npos);
}

struct CollectSink final : EventSink {
  std::vector<Event> got;
  void on_event(const Event& e) override { got.push_back(e); }
};

TEST(EventBus, CategoryGateDropsDisabledPublishes) {
  EventBus bus(2);
  CollectSink sink;
  bus.attach(&sink);

  EXPECT_TRUE(bus.enabled(kCatProto));  // always on: feeds the rings
  EXPECT_FALSE(bus.enabled(kCatMail));

  bus.publish(EventKind::kMailSend, 0, 10, 1);
  EXPECT_TRUE(sink.got.empty());  // gated out, never reached the sink

  bus.enable(kCatMail);
  EXPECT_TRUE(bus.enabled(kCatMail));
  bus.publish(EventKind::kMailSend, 0, 20, 1);
  ASSERT_EQ(sink.got.size(), 1u);
  EXPECT_EQ(sink.got[0].t_ps, 20u);
  // Mail events pass to sinks but only kCatProto feeds the rings.
  EXPECT_EQ(bus.ring(0).recorded(), 0u);
}

TEST(EventBus, ProtoEventsLandInThePublishersRingAndAllSinks) {
  EventBus bus(2);
  CollectSink a;
  CollectSink b;
  bus.attach(&a);
  bus.attach(&b);

  bus.publish(EventKind::kProtoFault, 1, 5, 7, 1);
  EXPECT_EQ(bus.ring(1).recorded(), 1u);
  EXPECT_EQ(bus.ring(0).recorded(), 0u);
  EXPECT_EQ(a.got.size(), 1u);  // fan-out reaches every sink
  EXPECT_EQ(b.got.size(), 1u);

  // Core ids outside [0, num_cores) — chip-level sources — share the
  // chip ring, including the -1 the watchdog publishes with.
  bus.publish(EventKind::kProtoFault, -1, 6, 8);
  bus.publish(EventKind::kProtoFault, 99, 7, 9);
  EXPECT_EQ(bus.ring(-1).recorded(), 2u);
  EXPECT_EQ(bus.ring(bus.num_cores()).recorded(), 2u);
}

TEST(Metrics, CountersAccumulateAndFoldFromFieldTables) {
  MetricsRegistry m;
  EXPECT_TRUE(m.empty());
  m.add("svm.faults", 3);
  m.add("svm.faults", 2);
  EXPECT_EQ(m.counter("svm.faults"), 5u);
  EXPECT_EQ(m.counter("missing"), 0u);

  struct Toy {
    u64 x = 4;
    u64 y = 2;
  };
  struct ToyField {
    const char* name;
    u64 Toy::*member;
  };
  static constexpr ToyField kToyFields[] = {{"x", &Toy::x},
                                            {"y", &Toy::y}};
  fold_fields(m, "toy", Toy{}, kToyFields);
  fold_fields(m, "toy", Toy{}, kToyFields);  // folds accumulate
  EXPECT_EQ(m.counter("toy.x"), 8u);
  EXPECT_EQ(m.counter("toy.y"), 4u);

  const std::string json = m.to_json("  ");
  EXPECT_NE(json.find("\"toy.x\": 8"), std::string::npos);
  EXPECT_NE(json.find("\"svm.faults\": 5"), std::string::npos);

  m.clear();
  EXPECT_TRUE(m.empty());
}

TEST(Metrics, HistogramSummaryIsOrderIndependent) {
  MetricsRegistry m;
  for (const u64 v : {9, 1, 5, 3, 7}) {
    m.observe("lat", v);
  }
  const LatencyHisto& s = m.histograms().at("lat");
  EXPECT_EQ(s.count(), 5u);
  EXPECT_EQ(s.min(), 1u);
  EXPECT_EQ(s.max(), 9u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_EQ(s.p50(), 5u);

  EXPECT_EQ(m.histograms().count("nope"), 0u);
}

TEST(Metrics, MailPackingRoundTrips) {
  const u64 packed = pack_mail(kWireOwnershipReq, 0xBEEF, 5);
  EXPECT_EQ(mail_type(packed), kWireOwnershipReq);
  EXPECT_EQ(mail_seq(packed), 0xBEEF);
  EXPECT_EQ(mail_requester(packed), 5);
  EXPECT_TRUE(is_wire_request(kWireOwnershipReq));
  EXPECT_TRUE(is_wire_ack(kWireOwnershipAck));
  EXPECT_FALSE(is_wire_ack(kWireOwnershipReq));
  EXPECT_EQ(flow_id(5, 0xBEEF), (u64{5} << 16) | 0xBEEF);
}

}  // namespace
}  // namespace msvm::obs
