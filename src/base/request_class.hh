/**
 * @file
 * Request classification shared by every layer.
 *
 * One struct carries the identity a request schedules under — which
 * tenant submitted it, how urgent it is within that tenant, and
 * which SLO tier its completion is judged against — so schedulers,
 * shedding, metrics, and report rows consume the same value instead
 * of loose ints threaded through signatures.
 */

#ifndef LIGHTLLM_BASE_REQUEST_CLASS_HH
#define LIGHTLLM_BASE_REQUEST_CLASS_HH

#include <cstdint>

namespace lightllm {
namespace base {

/** Tenant identity (0 = the default/anonymous tenant). */
using TenantId = std::uint32_t;

/**
 * Scheduling class of one request.
 *
 * `tenant` selects the scheduler-tree subtree (and the fairness
 * accounting bucket); `priority` orders requests *within* a class
 * (higher = more urgent; 0 = normal), consumed by the priority
 * queue policy and EDF's per-class deadline budgets; `sloTier`
 * selects which SLA the request is judged against in per-tenant
 * reporting (0 = the run's base SLA; higher tiers are stricter).
 */
struct RequestClass
{
    TenantId tenant = 0;
    int priority = 0;
    int sloTier = 0;
};

} // namespace base
} // namespace lightllm

#endif // LIGHTLLM_BASE_REQUEST_CLASS_HH
