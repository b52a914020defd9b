#include "workload/verifier.h"

#include <algorithm>

#include "nvme/tag_buffer.h"
#include "sim/check.h"
#include "sim/rng.h"
#include "sim/sync.h"

namespace zstor::workload {

using nvme::Command;
using nvme::Opcode;
using nvme::Status;

IntegrityVerifier::IntegrityVerifier(sim::Simulator& s, hostif::Stack& stack,
                                     Options opt)
    : sim_(s),
      stack_(stack),
      opt_(opt),
      lba_bytes_(stack.info().format.lba_bytes) {
  ZSTOR_CHECK(opt_.lbas_per_io > 0);
  ZSTOR_CHECK(opt_.concurrency > 0);
}

void IntegrityVerifier::RecordWrite(nvme::Lba lba, std::uint32_t nlb,
                                    std::uint64_t tag_base) {
  const std::uint64_t epoch = Epoch();
  for (std::uint32_t i = 0; i < nlb; ++i) {
    Entry& e = ledger_[lba + i];
    if (e.expected != 0) {
      // Overwrite: the previous acknowledged version is a legal rollback
      // target until a flush certifies the new one.
      e.history.push_back(e.expected);
    }
    e.expected = tag_base + i;
    e.flushed = false;
    e.epoch = epoch;
  }
}

// ------------------------------------------------------------ zoned fill

sim::Task<> IntegrityVerifier::FillWorker(std::vector<std::uint32_t> zones,
                                          std::uint64_t bytes_per_zone,
                                          sim::WaitGroup* wg) {
  const std::uint64_t zsize = stack_.info().zone_size_lbas;
  const std::uint64_t io_bytes =
      static_cast<std::uint64_t>(opt_.lbas_per_io) * lba_bytes_;
  // Round-robin across this worker's zones, one in-flight append total
  // (and therefore at most one per zone — the replay-dedupe discipline).
  std::vector<std::uint64_t> filled(zones.size(), 0);
  for (bool progress = true; progress;) {
    progress = false;
    for (std::size_t i = 0; i < zones.size(); ++i) {
      if (filled[i] + io_bytes > bytes_per_zone) continue;
      Command cmd;
      cmd.opcode = Opcode::kAppend;
      cmd.slba = static_cast<nvme::Lba>(zones[i]) * zsize;
      cmd.nlb = opt_.lbas_per_io;
      cmd.payload_tag = TakeTagBase(cmd.nlb);
      auto tc = co_await stack_.Submit(cmd);
      if (tc.completion.ok()) {
        wstats_.writes_acked++;
        filled[i] += io_bytes;
        RecordWrite(tc.completion.result_lba, cmd.nlb, cmd.payload_tag);
        progress = true;
      } else if (tc.completion.status == Status::kZoneIsFull ||
                 tc.completion.status == Status::kZoneIsReadOnly ||
                 tc.completion.status == Status::kZoneIsOffline) {
        filled[i] = bytes_per_zone;  // zone is done for this phase
      } else {
        // Retry budget exhausted (e.g. died inside an outage): the append
        // may or may not be durable; the ledger never saw it, so a
        // surviving copy is simply an unreferenced orphan.
        wstats_.write_failures++;
        filled[i] = bytes_per_zone;
      }
    }
  }
  wg->Done();
}

sim::Task<> IntegrityVerifier::FillZones(std::uint32_t first_zone,
                                         std::uint32_t zone_count,
                                         double utilization) {
  ZSTOR_CHECK(stack_.info().zoned);
  ZSTOR_CHECK(utilization > 0.0 && utilization <= 1.0);
  const std::uint64_t cap_bytes =
      stack_.info().zone_cap_lbas * static_cast<std::uint64_t>(lba_bytes_);
  const std::uint64_t io_bytes =
      static_cast<std::uint64_t>(opt_.lbas_per_io) * lba_bytes_;
  std::uint64_t target =
      static_cast<std::uint64_t>(static_cast<double>(cap_bytes) *
                                 utilization);
  target -= target % io_bytes;  // whole commands only
  const std::uint32_t workers =
      std::min(opt_.concurrency, std::max(1u, zone_count));
  sim::WaitGroup wg(sim_);
  for (std::uint32_t w = 0; w < workers; ++w) {
    std::vector<std::uint32_t> zones;
    for (std::uint32_t z = w; z < zone_count; z += workers) {
      zones.push_back(first_zone + z);
    }
    if (zones.empty()) continue;
    wg.Add();
    sim::Spawn(FillWorker(std::move(zones), target, &wg));
  }
  co_await wg.Wait();
}

// ----------------------------------------------------- conventional fill

sim::Task<> IntegrityVerifier::WriteWorker(nvme::Lba slice_first,
                                           std::uint64_t slice_ios,
                                           std::uint64_t io_count,
                                           std::uint64_t seed,
                                           sim::WaitGroup* wg) {
  sim::Rng rng(seed);
  for (std::uint64_t n = 0; n < io_count; ++n) {
    const std::uint64_t slot = rng.UniformU64(slice_ios);
    Command cmd;
    cmd.opcode = Opcode::kWrite;
    cmd.slba = slice_first + slot * opt_.lbas_per_io;
    cmd.nlb = opt_.lbas_per_io;
    cmd.payload_tag = TakeTagBase(cmd.nlb);
    auto tc = co_await stack_.Submit(cmd);
    if (tc.completion.ok()) {
      wstats_.writes_acked++;
      RecordWrite(cmd.slba, cmd.nlb, cmd.payload_tag);
    } else {
      wstats_.write_failures++;
    }
  }
  wg->Done();
}

sim::Task<> IntegrityVerifier::WriteRegion(nvme::Lba first_lba,
                                           std::uint64_t lba_span,
                                           std::uint64_t io_count) {
  const std::uint64_t total_ios = lba_span / opt_.lbas_per_io;
  ZSTOR_CHECK_MSG(total_ios >= opt_.concurrency,
                  "region too small for the worker count");
  const std::uint32_t workers = opt_.concurrency;
  const std::uint64_t ios_per_slice = total_ios / workers;
  sim::WaitGroup wg(sim_);
  for (std::uint32_t w = 0; w < workers; ++w) {
    const nvme::Lba slice_first =
        first_lba + static_cast<nvme::Lba>(w) * ios_per_slice *
                        opt_.lbas_per_io;
    const std::uint64_t quota =
        io_count / workers + (w < io_count % workers ? 1 : 0);
    if (quota == 0) continue;
    wg.Add();
    sim::Spawn(
        WriteWorker(slice_first, ios_per_slice, quota, opt_.seed + w, &wg));
  }
  co_await wg.Wait();
}

// -------------------------------------------------------- flush & verify

sim::Task<bool> IntegrityVerifier::Flush() {
  Command cmd;
  cmd.opcode = Opcode::kFlush;
  auto tc = co_await stack_.Submit(cmd);
  if (!tc.completion.ok()) {
    wstats_.flush_failures++;
    co_return false;
  }
  wstats_.flushes_acked++;
  // The flush certifies durability only for writes acknowledged in the
  // same crash epoch — anything older was already rolled back by the
  // intervening power loss, however hard this flush tries.
  const std::uint64_t epoch = Epoch();
  for (auto& [lba, e] : ledger_) {
    if (!e.flushed && e.epoch == epoch) {
      e.flushed = true;
      e.history.clear();
    }
  }
  co_return true;
}

sim::Task<IntegrityVerifier::Report> IntegrityVerifier::VerifyAll() {
  // Contiguous ledger entries are read back in runs of at most one tag
  // block's worth of LBAs, each into a block of its own.
  constexpr std::size_t kMaxRunLbas = nvme::TagBuffer::kTags;
  Report rep;
  auto it = ledger_.begin();
  while (it != ledger_.end()) {
    // Coalesce contiguous ledger entries into one ranged read.
    const nvme::Lba start = it->first;
    std::vector<const Entry*> run;
    nvme::Lba next = start;
    while (it != ledger_.end() && it->first == next &&
           run.size() < kMaxRunLbas) {
      run.push_back(&it->second);
      ++next;
      ++it;
    }
    Command cmd;
    cmd.opcode = Opcode::kRead;
    cmd.slba = start;
    cmd.nlb = static_cast<std::uint32_t>(run.size());
    cmd.payload_tag = 1;  // any nonzero value requests tag readback
    nvme::TagBuffer tags;
    cmd.data = tags.data();
    auto tc = co_await stack_.Submit(cmd);
    if (!tc.completion.ok() || tc.completion.count != run.size()) {
      rep.read_errors++;
      continue;
    }
    for (std::size_t i = 0; i < run.size(); ++i) {
      const Entry& e = *run[i];
      const std::uint64_t got = tags[i];
      rep.lbas_checked++;
      rep.bytes_verified += lba_bytes_;
      if (got == e.expected) {
        rep.exact++;
      } else if (e.flushed) {
        rep.silent_corruptions++;  // durable data changed: never legal
      } else if (got == 0) {
        rep.lost_unflushed++;
      } else if (std::find(e.history.begin(), e.history.end(), got) !=
                 e.history.end()) {
        rep.stale_unflushed++;
      } else {
        rep.silent_corruptions++;
      }
    }
  }
  co_return rep;
}

}  // namespace zstor::workload
