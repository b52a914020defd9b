// Device contract tests: what every SSD model promises through the
// controller skeleton it shares, checked on a Tiny ZnsDevice and a Tiny
// ConvDevice alike. Each scheduled power loss cuts power once (late if
// it falls in the device's own recovery, not at all if it falls in an
// outage a direct CrashNow opened) and a plan arms once; a command during
// an outage and an unsupported opcode are each counted once in the right
// bucket; and the SMART and Die Utilization log pages agree with the
// NAND array's own accounting.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "fault/fault_plan.h"
#include "ftl/conv_device.h"
#include "sim/simulator.h"
#include "sim/task.h"
#include "zns/zns_device.h"

namespace zstor {
namespace {

using nvme::Opcode;
using nvme::Status;

struct ZnsModel {
  using Device = zns::ZnsDevice;
  static std::unique_ptr<Device> Make(sim::Simulator& s) {
    return std::make_unique<Device>(s, zns::TinyProfile());
  }
  static nand::FlashArray& Flash(Device& d) { return *d.flash(); }
  /// Trim belongs to the conventional command set only.
  static constexpr Opcode kUnsupported = Opcode::kDeallocate;
  static nvme::Command Write(Device& d, std::uint32_t nlb) {
    return {.opcode = Opcode::kWrite, .slba = d.ZoneStartLba(0), .nlb = nlb};
  }
};

struct ConvModel {
  using Device = ftl::ConvDevice;
  static std::unique_ptr<Device> Make(sim::Simulator& s) {
    return std::make_unique<Device>(s, ftl::TinyConvProfile());
  }
  static nand::FlashArray& Flash(Device& d) { return d.flash(); }
  /// Zone Append belongs to the zoned command set only.
  static constexpr Opcode kUnsupported = Opcode::kAppend;
  static nvme::Command Write(Device&, std::uint32_t nlb) {
    return {.opcode = Opcode::kWrite, .slba = 0, .nlb = nlb};
  }
};

template <typename Model>
class DeviceContract : public ::testing::Test {
 protected:
  DeviceContract() : dev(Model::Make(sim)) {}

  nvme::Completion Run(nvme::Command cmd) {
    nvme::Completion out;
    auto body = [&]() -> sim::Task<> { out = co_await dev->Execute(cmd); };
    auto t = body();
    sim.Run();
    return out;
  }

  static fault::FaultSpec Spec(const char* text) {
    fault::FaultSpec spec;
    std::string err;
    EXPECT_TRUE(fault::ParseFaultSpec(text, &spec, &err)) << err;
    return spec;
  }

  sim::Simulator sim;
  std::unique_ptr<typename Model::Device> dev;
};

using Models = ::testing::Types<ZnsModel, ConvModel>;
TYPED_TEST_SUITE(DeviceContract, Models);

TYPED_TEST(DeviceContract, ScheduledCrashInsideItsRecoveryFiresWhenItEnds) {
  // 501 us lands inside the outage the 500 us crash opened (recovery
  // boot alone is 2 ms). The crash driver waits that recovery out and
  // then cuts power at once: every scheduled time is one power loss.
  fault::FaultPlan plan{this->Spec("crash=500,crash=501,crash=10000")};
  this->dev->AttachFaultPlan(&plan);
  this->sim.RunUntil(sim::Milliseconds(3));
  EXPECT_EQ(this->dev->counters().crashes, 2u);
  EXPECT_EQ(this->dev->counters().recoveries, 1u);  // the second still runs
  this->sim.Run();
  EXPECT_EQ(this->dev->counters().crashes, 3u);
  EXPECT_EQ(this->dev->counters().recoveries, 3u);
  EXPECT_EQ(this->dev->power_epoch(), 3u);
}

TYPED_TEST(DeviceContract, ScheduledCrashInsideADirectOutageCoalesces) {
  fault::FaultPlan plan{this->Spec("crash=500")};
  this->dev->AttachFaultPlan(&plan);
  auto body = [&]() -> sim::Task<> {
    co_await this->sim.Delay(sim::Microseconds(400));
    co_await this->dev->CrashNow();  // out from 400 us to past 2 ms
  };
  auto t = body();
  this->sim.Run();
  EXPECT_EQ(this->dev->counters().crashes, 1u);
  EXPECT_EQ(this->dev->counters().recoveries, 1u);
}

TYPED_TEST(DeviceContract, AttachingAPlanTwiceArmsOneDriver) {
  // Re-attached after the crash has come and gone: a second driver
  // would find 500 us in the past and cut power again at once.
  fault::FaultPlan plan{this->Spec("crash=500")};
  this->dev->AttachFaultPlan(&plan);
  this->sim.RunUntil(sim::Milliseconds(5));
  ASSERT_EQ(this->dev->counters().recoveries, 1u);
  this->dev->AttachFaultPlan(&plan);
  this->sim.Run();
  EXPECT_EQ(this->dev->counters().crashes, 1u);
  EXPECT_EQ(this->dev->counters().recoveries, 1u);
}

TYPED_TEST(DeviceContract, CommandDuringTheOutageIsOneResetDrop) {
  nvme::Completion during;
  auto body = [&]() -> sim::Task<> {
    sim::Spawn(this->dev->CrashNow());  // runs up to its first wait
    during = co_await this->dev->Execute(TypeParam::Write(*this->dev, 1));
  };
  auto t = body();
  this->sim.Run();
  EXPECT_EQ(during.status, Status::kDeviceReset);
  EXPECT_EQ(this->dev->counters().reset_drops, 1u);
  EXPECT_EQ(this->dev->counters().host_rejects, 0u);
  EXPECT_EQ(this->dev->counters().media_errors, 0u);
  EXPECT_EQ(this->dev->counters().recoveries, 1u);
}

TYPED_TEST(DeviceContract, UnsupportedOpcodeIsOneHostReject) {
  nvme::Command cmd = TypeParam::Write(*this->dev, 1);
  cmd.opcode = TypeParam::kUnsupported;
  EXPECT_EQ(this->Run(cmd).status, Status::kInvalidOpcode);
  EXPECT_EQ(this->dev->counters().host_rejects, 1u);
  EXPECT_EQ(this->dev->counters().reset_drops, 0u);
  EXPECT_EQ(this->dev->counters().media_errors, 0u);
}

TYPED_TEST(DeviceContract, LogPagesAgreeWithTheFlashArray) {
  // 64 LBAs of 4 KiB fill 16 NAND pages; the flush drains them to the
  // dies and the read brings some back.
  ASSERT_TRUE(this->Run(TypeParam::Write(*this->dev, 64)).ok());
  ASSERT_TRUE(this->Run({.opcode = Opcode::kFlush}).ok());
  nvme::Command rd = TypeParam::Write(*this->dev, 64);
  rd.opcode = Opcode::kRead;
  ASSERT_TRUE(this->Run(rd).ok());

  const nand::FlashArray& fa = TypeParam::Flash(*this->dev);
  const nand::FlashCounters& fc = fa.counters();
  const nvme::SmartLog log = this->dev->GetSmartLog();
  EXPECT_GT(fc.page_programs, 0u);
  EXPECT_GT(fc.page_reads, 0u);
  EXPECT_EQ(log.media_page_reads, fc.page_reads);
  EXPECT_EQ(log.media_page_programs, fc.page_programs);
  EXPECT_EQ(log.media_block_erases, fc.block_erases);
  EXPECT_EQ(log.media_bytes_read, fc.bytes_read);
  EXPECT_EQ(log.media_bytes_programmed, fc.bytes_programmed);
  EXPECT_EQ(log.media_read_retries, fc.read_retries);

  const nvme::DieUtilLog dies = this->dev->GetDieUtilLog();
  EXPECT_EQ(dies.elapsed_ns, static_cast<std::uint64_t>(this->sim.now()));
  ASSERT_GT(dies.elapsed_ns, 0u);
  ASSERT_EQ(dies.dies.size(), fa.geometry().total_dies());
  for (std::uint32_t d = 0; d < dies.dies.size(); ++d) {
    const nvme::DieUtilEntry& e = dies.dies[d];
    EXPECT_EQ(e.die, d);
    EXPECT_EQ(e.busy_ns, static_cast<std::uint64_t>(fa.die_stats()[d].busy_ns));
    EXPECT_DOUBLE_EQ(e.utilization, static_cast<double>(e.busy_ns) /
                                        static_cast<double>(dies.elapsed_ns));
  }
}

}  // namespace
}  // namespace zstor
