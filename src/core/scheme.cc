#include "src/core/scheme.h"

namespace icr::core {
namespace {

Scheme icr_base(std::string name, Protection protection, LookupMode lookup,
                ReplicateOn trigger) {
  Scheme s;
  s.name = std::move(name);
  s.replication_enabled = true;
  s.protection = protection;
  s.lookup = lookup;
  s.trigger = trigger;
  return s;
}

}  // namespace

Scheme Scheme::BaseP() {
  Scheme s;
  s.name = "BaseP";
  return s;
}

Scheme Scheme::BaseECC() {
  Scheme s;
  s.name = "BaseECC";
  s.protection = Protection::kEcc;
  return s;
}

Scheme Scheme::BaseECCSpeculative() {
  Scheme s = BaseECC();
  s.name = "BaseECC-spec";
  s.speculative_ecc_loads = true;
  return s;
}

Scheme Scheme::IcrPPS_LS() {
  return icr_base("ICR-P-PS(LS)", Protection::kParity, LookupMode::kSerial,
                  ReplicateOn::kLoadsAndStores);
}
Scheme Scheme::IcrPPS_S() {
  return icr_base("ICR-P-PS(S)", Protection::kParity, LookupMode::kSerial,
                  ReplicateOn::kStores);
}
Scheme Scheme::IcrPPP_LS() {
  return icr_base("ICR-P-PP(LS)", Protection::kParity, LookupMode::kParallel,
                  ReplicateOn::kLoadsAndStores);
}
Scheme Scheme::IcrPPP_S() {
  return icr_base("ICR-P-PP(S)", Protection::kParity, LookupMode::kParallel,
                  ReplicateOn::kStores);
}
Scheme Scheme::IcrEccPS_LS() {
  return icr_base("ICR-ECC-PS(LS)", Protection::kEcc, LookupMode::kSerial,
                  ReplicateOn::kLoadsAndStores);
}
Scheme Scheme::IcrEccPS_S() {
  return icr_base("ICR-ECC-PS(S)", Protection::kEcc, LookupMode::kSerial,
                  ReplicateOn::kStores);
}
Scheme Scheme::IcrEccPP_LS() {
  return icr_base("ICR-ECC-PP(LS)", Protection::kEcc, LookupMode::kParallel,
                  ReplicateOn::kLoadsAndStores);
}
Scheme Scheme::IcrEccPP_S() {
  return icr_base("ICR-ECC-PP(S)", Protection::kEcc, LookupMode::kParallel,
                  ReplicateOn::kStores);
}

std::vector<Scheme> Scheme::all_paper_schemes() {
  return {BaseP(),      BaseECC(),    IcrPPS_LS(),   IcrPPS_S(),
          IcrPPP_LS(),  IcrPPP_S(),   IcrEccPS_LS(), IcrEccPS_S(),
          IcrEccPP_LS(), IcrEccPP_S()};
}

Scheme Scheme::with_decay_window(std::uint64_t window) const {
  Scheme s = *this;
  s.decay_window = window;
  return s;
}

Scheme Scheme::with_victim_policy(ReplicaVictimPolicy policy) const {
  Scheme s = *this;
  s.victim_policy = policy;
  return s;
}

Scheme Scheme::with_replication(ReplicationConfig config) const {
  Scheme s = *this;
  s.replication = std::move(config);
  return s;
}

Scheme Scheme::with_leave_replicas(bool leave) const {
  Scheme s = *this;
  s.leave_replicas_on_eviction = leave;
  return s;
}

Scheme Scheme::with_write_through() const {
  Scheme s = *this;
  s.write_policy = WritePolicy::kWriteThrough;
  return s;
}

Scheme Scheme::with_scrubbing(std::uint64_t interval) const {
  Scheme s = *this;
  s.scrub_interval = interval;
  return s;
}

}  // namespace icr::core
