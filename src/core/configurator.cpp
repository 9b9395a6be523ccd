#include "core/configurator.hpp"

#include <algorithm>
#include <sstream>

#include "common/check.hpp"

namespace pap::core {

std::string MechanismConfig::summary() const {
  std::ostringstream os;
  os << "DSU CLUSTERPARTCR=0x" << std::hex << clusterpartcr << std::dec
     << "; scheme IDs:";
  for (const auto& [app, s] : scheme_ids) {
    os << " app" << app << "->" << static_cast<int>(s);
  }
  os << "; memguard budgets:";
  for (const auto& [app, b] : memguard_budgets) {
    os << " app" << app << "=" << b;
  }
  os << "; proven bounds:";
  for (const auto& g : grants) {
    os << " app" << g.app << "=" << g.e2e_bound.to_string();
  }
  return os.str();
}

Configurator::Configurator(PlatformModel model, Rate noc_budget)
    : model_(std::move(model)), noc_budget_(noc_budget) {}

Expected<MechanismConfig> Configurator::configure(
    std::vector<AppRequirement> apps) const {
  if (apps.empty()) {
    return Expected<MechanismConfig>::error("no applications to configure");
  }
  MechanismConfig out;

  // --- 1. Cache isolation: critical apps get private DSU groups. ---------
  // Scheme 0 is the shared pool for QM/low-ASIL apps; critical apps get
  // scheme IDs 1..3 with a private partition group each (the DSU has 4
  // groups; we keep the last unassigned as shared overflow).
  std::vector<const AppRequirement*> by_criticality;
  for (const auto& a : apps) by_criticality.push_back(&a);
  std::stable_sort(by_criticality.begin(), by_criticality.end(),
                   [](const AppRequirement* x, const AppRequirement* y) {
                     return static_cast<int>(x->asil) >
                            static_cast<int>(y->asil);
                   });
  cache::GroupOwners owners{};
  cache::SchemeId next_scheme = 1;
  for (const auto* a : by_criticality) {
    if (a->critical() && next_scheme <= 3) {
      out.scheme_ids.emplace_back(a->app, next_scheme);
      owners[next_scheme - 1] = next_scheme;  // group g private to scheme g+1
      ++next_scheme;
    } else {
      out.scheme_ids.emplace_back(a->app, 0);
    }
  }
  out.clusterpartcr = cache::encode_clusterpartcr(owners);

  // --- 2. Memguard budgets from the traffic contracts. -------------------
  // Budget = contracted requests per regulation period, plus the burst
  // (a conformant app must never be throttled: throttling is for contract
  // violators).
  out.memguard_period = Time::us(10);
  for (const auto& a : apps) {
    const double per_period =
        a.traffic.rate * out.memguard_period.nanos() + a.traffic.burst;
    out.memguard_budgets.emplace_back(
        a.app, static_cast<std::uint64_t>(per_period) + 1);
  }

  // --- 3. RM rate table: non-symmetric, critical guarantees pinned. ------
  std::vector<rm::AppQos> qos;
  for (const auto& a : apps) {
    rm::AppQos q;
    q.app = a.app;
    q.critical = a.critical();
    // requests/ns -> bits/s over the app's request size.
    q.guaranteed = Rate::bits_per_sec(a.traffic.rate * 1e9 * 8.0 *
                                      static_cast<double>(a.request_bytes));
    qos.push_back(q);
  }
  auto table = rm::RateTable::non_symmetric(
      noc_budget_, kCacheLineBytes, /*burst_packets=*/4.0, std::move(qos));
  if (!table) {
    return Expected<MechanismConfig>::error(
        "rate table infeasible: " + table.error_message());
  }
  out.rate_table = std::move(table).value();

  // --- 4. Validate with the formal end-to-end analysis. ------------------
  AdmissionController admission(model_, AdmissionEngine::kIncremental);
  // Admit critical apps first so a failure names the responsible mix.
  for (const auto* a : by_criticality) {
    auto grant = admission.request(*a);
    if (!grant) {
      return Expected<MechanismConfig>::error(
          "validation failed: " + grant.error_message());
    }
    out.grants.push_back(grant.value());
  }
  return out;
}

}  // namespace pap::core
