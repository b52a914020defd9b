// Zone-lifecycle timeline coverage: every host-visible state transition
// a zone goes through must emit a zone_state record, and resets must
// leave a zone.reset window, so a timeline fully replays a zone's life.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "telemetry/telemetry.h"
#include "telemetry/timeline.h"
#include "zns_test_util.h"

namespace zstor::zns {
namespace {

using testing::Harness;
using testing::QuietTiny;

struct TimelineFixture {
  std::string cap;
  telemetry::TimelineWriter writer{&cap};
  Harness h{QuietTiny()};
  telemetry::Telemetry telem;

  TimelineFixture() {
    telem.SetTimeline(&writer);
    telem.set_timeline_label("zns-test");
    h.dev.AttachTelemetry(&telem, /*lane=*/3);
  }

  bool Saw(const std::string& needle) const {
    return cap.find(needle) != std::string::npos;
  }
};

TEST(ZnsTimeline, WriteLifecycleEmitsEveryTransition) {
  TimelineFixture f;
  f.h.FillZone(0);  // Empty -> ImplicitlyOpened -> Full
  ASSERT_TRUE(f.h.Reset(0).ok());  // Full -> Empty
  EXPECT_TRUE(f.Saw(
      "\"zone\":0,\"from\":\"Empty\",\"to\":\"ImplicitlyOpened\""));
  EXPECT_TRUE(f.Saw(
      "\"zone\":0,\"from\":\"ImplicitlyOpened\",\"to\":\"Full\""));
  EXPECT_TRUE(f.Saw("\"zone\":0,\"from\":\"Full\",\"to\":\"Empty\""));
  // The reset's whole service window is visible as a background window.
  EXPECT_TRUE(f.Saw("\"kind\":\"zone.reset\""));
  // Device-scoped records carry the attach-time lane.
  EXPECT_TRUE(f.Saw("\"tb\":\"zns-test\",\"lane\":3,\"zone\":0"));
}

TEST(ZnsTimeline, ExplicitOpenCloseFinishTransitions) {
  TimelineFixture f;
  ASSERT_TRUE(f.h.Open(1).ok());
  ASSERT_TRUE(f.h.Write(1, 0, 8).ok());
  ASSERT_TRUE(f.h.Close(1).ok());
  ASSERT_TRUE(f.h.Finish(1).ok());
  EXPECT_TRUE(f.Saw(
      "\"zone\":1,\"from\":\"Empty\",\"to\":\"ExplicitlyOpened\""));
  EXPECT_TRUE(f.Saw(
      "\"zone\":1,\"from\":\"ExplicitlyOpened\",\"to\":\"Closed\""));
  EXPECT_TRUE(f.Saw("\"zone\":1,\"from\":\"Closed\",\"to\":\"Full\""));
}

TEST(ZnsTimeline, NoTimelineMeansNoRecordsAndNoCrash) {
  // Telemetry without a timeline: the emit sites must all gate on the
  // writer's presence.
  Harness h{QuietTiny()};
  telemetry::Telemetry telem;
  h.dev.AttachTelemetry(&telem, 0);
  h.FillZone(0);
  ASSERT_TRUE(h.Reset(0).ok());
  EXPECT_EQ(telem.timeline(), nullptr);
}

TEST(ZnsTimeline, DieActivityIsRecordedAndFlushable) {
  TimelineFixture f;
  f.telem.timeline()->set_die_merge_gap_ns(sim::Microseconds(50));
  f.h.FillZone(0);
  ASSERT_TRUE(f.h.dev.flash() != nullptr);
  f.h.dev.flash()->FlushDieWindows();  // emit windows still open
  EXPECT_TRUE(f.Saw("\"type\":\"die_busy\""));
  EXPECT_TRUE(f.Saw("\"busy_ns\":"));
}

}  // namespace
}  // namespace zstor::zns
