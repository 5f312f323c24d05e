#include "workload/tenant_mix.hh"

#include <algorithm>
#include <cmath>

#include "base/logging.hh"
#include "base/rng.hh"

namespace lightllm {
namespace workload {

std::vector<double>
TenantMix::shares() const
{
    LIGHTLLM_ASSERT(numTenants >= 1, "tenant mix needs >= 1 tenant");
    if (!weights.empty()) {
        LIGHTLLM_ASSERT(weights.size() == numTenants,
                        "tenant weights must cover every tenant");
        for (double weight : weights) {
            LIGHTLLM_ASSERT(weight > 0.0,
                            "tenant weights must be positive");
        }
        return weights;
    }
    LIGHTLLM_ASSERT(zipfExponent >= 0.0,
                    "zipf exponent must be non-negative");
    std::vector<double> out(numTenants);
    for (std::size_t t = 0; t < numTenants; ++t)
        out[t] = 1.0 / std::pow(static_cast<double>(t + 1),
                                zipfExponent);
    return out;
}

void
assignTenantMix(Dataset &dataset, const TenantMix &mix,
                std::uint64_t seed)
{
    const std::vector<double> shares = mix.shares();
    double total = 0.0;
    for (double share : shares)
        total += share;

    const std::size_t tiers = std::max<std::size_t>(mix.sloTiers, 1);
    Rng rng(seed);
    for (RequestSpec &spec : dataset.requests) {
        const std::size_t tenant = drawShare(rng, shares, total);
        spec.cls.tenant = static_cast<base::TenantId>(tenant);
        spec.cls.sloTier = static_cast<int>(tenant % tiers);
    }
}

std::vector<double>
tenantTreeWeights(const TenantMix &mix)
{
    std::vector<double> out = mix.shares();
    const double top = *std::max_element(out.begin(), out.end());
    for (double &weight : out)
        weight /= top;
    return out;
}

} // namespace workload
} // namespace lightllm
