// Test-only access to KvStore internals (KvStoreInternals is a friend of
// KvStore): the version a lookup resolves, and the table-level hooks the
// relocation tests drive directly.
#pragma once

#include <cstdint>

#include "sim/task.h"
#include "zkv/kv_store.h"

namespace zstor::zkv {

/// A version of one key: what the store holds or a model expects.
struct Version {
  std::uint64_t seq = 0;  // 0: no version at all
  std::uint64_t bytes = 0;
  bool tombstone = false;

  bool live() const { return seq != 0 && !tombstone; }
  bool operator==(const Version&) const = default;
};

struct KvStoreInternals {
  /// The version Get resolves `key` to, without issuing I/O.
  static Version Resolved(const KvStore& kv, std::uint64_t key) {
    KvStore::SsTable* t = nullptr;
    const KvStore::TableEntry* e = kv.Lookup(key, &t);
    if (e == nullptr) return {};
    return {e->seq, e->bytes, e->tombstone};
  }

  /// The zone holding the first LBA of `key`'s SSTable entry; false when
  /// the key resolves to a memtable or to nothing.
  static bool EntryZone(const KvStore& kv, std::uint64_t key,
                        std::uint32_t* zone) {
    KvStore::SsTable* t = nullptr;
    const KvStore::TableEntry* e = kv.Lookup(key, &t);
    if (e == nullptr || t == nullptr) return false;
    const std::uint32_t first =
        t->lba_off[static_cast<std::size_t>(e - t->entries.data())];
    std::uint32_t pos = 0;
    for (const KvStore::Extent& x : t->extents) {
      if (first < pos + x.lbas) {
        *zone = x.zone;
        return true;
      }
      pos += x.lbas;
    }
    return false;
  }

  /// Moves the runs of `key`'s SSTable that sit in `zone` elsewhere, as a
  /// reclaim pass does (the table is claimed meanwhile).
  static sim::Task<> RelocateTableOf(KvStore& kv, std::uint64_t key,
                                     std::uint32_t zone) {
    KvStore::SsTable* t = nullptr;
    kv.Lookup(key, &t);
    t->compacting = true;
    co_await kv.RelocateTablePart(t, zone);
    t->compacting = false;
  }

  /// Whether any run of `key`'s SSTable sits in `zone`.
  static bool TableUsesZone(const KvStore& kv, std::uint64_t key,
                            std::uint32_t zone) {
    KvStore::SsTable* t = nullptr;
    kv.Lookup(key, &t);
    for (const KvStore::Extent& x : t->extents) {
      if (x.zone == zone) return true;
    }
    return false;
  }

  /// LBAs the store counts as written to data zone `zone`, its
  /// reservations included.
  static std::uint64_t ZoneWrittenLbas(const KvStore& kv, std::uint32_t zone) {
    return kv.zones_[kv.ZoneIndex(zone)].written_lbas;
  }

  /// Whether data zone `zone` is sealed: no allocation target, and
  /// counted written to capacity.
  static bool ZoneSealed(const KvStore& kv, std::uint32_t zone) {
    const KvStore::ZoneInfo& zi = kv.zones_[kv.ZoneIndex(zone)];
    return !zi.open && zi.written_lbas == kv.zone_cap_lbas();
  }
};

}  // namespace zstor::zkv
