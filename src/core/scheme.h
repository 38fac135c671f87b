// The ten dL1 protection schemes evaluated by the paper (§3.2), plus the
// orthogonal knobs explored in §5 (decay window, victim policy, replica
// retention on eviction, speculative ECC loads, write-through L1).
//
// Naming follows the paper: ICR-<unreplicated protection>-<lookup> (<trigger>)
//   protection  P   = byte parity            ECC = SEC-DED (72,64)
//   lookup      PS  = probe replica serially only after a parity error
//               PP  = probe primary and replica in parallel, compare both
//   trigger     S   = replicate on stores    LS  = also on load misses
// Replicated lines are always parity protected (§3.1): replicas themselves
// provide the correction capability, and parity keeps load hits at 1 cycle.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/replication_policy.h"

namespace icr::core {

enum class Protection : std::uint8_t { kParity, kEcc };
enum class LookupMode : std::uint8_t { kSerial /*PS*/, kParallel /*PP*/ };
enum class ReplicateOn : std::uint8_t { kStores /*S*/, kLoadsAndStores /*LS*/ };
enum class WritePolicy : std::uint8_t { kWriteBack, kWriteThrough };

struct Scheme {
  std::string name;

  bool replication_enabled = false;
  Protection protection = Protection::kParity;  // for unreplicated lines
  LookupMode lookup = LookupMode::kSerial;
  ReplicateOn trigger = ReplicateOn::kStores;

  // BaseECC §5.9 variant: ECC verification runs in the background and load
  // hits complete in 1 cycle.
  bool speculative_ecc_loads = false;

  // §5.6 performance mode: keep replicas when their primary is evicted and
  // serve later primary misses from them at +1 cycle.
  bool leave_replicas_on_eviction = false;

  // §5.8 comparison: write-through dL1 with a coalescing write buffer.
  WritePolicy write_policy = WritePolicy::kWriteBack;

  ReplicaVictimPolicy victim_policy = ReplicaVictimPolicy::kDeadOnly;
  ReplicationConfig replication;

  // Dead-block decay window in cycles; 0 = aggressive (dead immediately).
  std::uint64_t decay_window = 0;

  // Background scrubbing (extension; cf. Saleh et al., cited as [21]):
  // every `scrub_interval` cycles the scrubber verifies one cache set and
  // repairs what it can (replica, ECC, or L2 refetch for clean lines),
  // bounding error accumulation between accesses. 0 = disabled.
  std::uint64_t scrub_interval = 0;

  // ---- Named constructors for the paper's schemes ----
  [[nodiscard]] static Scheme BaseP();
  [[nodiscard]] static Scheme BaseECC();
  [[nodiscard]] static Scheme BaseECCSpeculative();
  [[nodiscard]] static Scheme IcrPPS_LS();
  [[nodiscard]] static Scheme IcrPPS_S();
  [[nodiscard]] static Scheme IcrPPP_LS();
  [[nodiscard]] static Scheme IcrPPP_S();
  [[nodiscard]] static Scheme IcrEccPS_LS();
  [[nodiscard]] static Scheme IcrEccPS_S();
  [[nodiscard]] static Scheme IcrEccPP_LS();
  [[nodiscard]] static Scheme IcrEccPP_S();

  // The ten schemes of §3.2 in paper order (Fig. 9).
  [[nodiscard]] static std::vector<Scheme> all_paper_schemes();

  // Fluent tweaks used by the experiment harness.
  [[nodiscard]] Scheme with_decay_window(std::uint64_t window) const;
  [[nodiscard]] Scheme with_victim_policy(ReplicaVictimPolicy policy) const;
  [[nodiscard]] Scheme with_replication(ReplicationConfig config) const;
  [[nodiscard]] Scheme with_leave_replicas(bool leave) const;
  [[nodiscard]] Scheme with_write_through() const;
  [[nodiscard]] Scheme with_scrubbing(std::uint64_t interval) const;
};

}  // namespace icr::core
