// NVMe command-set types: LBA format arithmetic and the names traces
// print for opcodes and statuses.
#include <gtest/gtest.h>

#include "nvme/types.h"

namespace zstor::nvme {
namespace {

TEST(LbaFormat, BytesToLbasRoundsUp) {
  LbaFormat f4k{4096};
  EXPECT_EQ(f4k.BytesToLbas(4096), 1u);
  EXPECT_EQ(f4k.BytesToLbas(4097), 2u);
  EXPECT_EQ(f4k.BytesToLbas(1), 1u);
  LbaFormat f512{512};
  EXPECT_EQ(f512.BytesToLbas(4096), 8u);
}

TEST(Types, StatusAndOpcodeNames) {
  EXPECT_EQ(ToString(Status::kTooManyOpenZones), "TooManyOpenZones");
  EXPECT_EQ(ToString(Opcode::kAppend), "append");
}

}  // namespace
}  // namespace zstor::nvme
