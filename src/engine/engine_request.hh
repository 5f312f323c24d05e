/**
 * @file
 * The serving engine's per-request state, held in its recycled slab
 * and handed by pointer to the mechanisms it delegates to (decode
 * runs, the prediction audit, the session chain memo).
 */

#ifndef LIGHTLLM_ENGINE_ENGINE_REQUEST_HH
#define LIGHTLLM_ENGINE_ENGINE_REQUEST_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "base/token_stream.hh"
#include "base/types.hh"
#include "workload/request_spec.hh"

namespace lightllm {
namespace engine {

/** Engine-side request state. The fields every decode step reads
 *  for every member lead, next to the spec's lengths. */
struct EngineRequest
{
    /** Generation-tagged handle: the index is the slab position,
     *  the generation moves on every recycle. Keys the KV
     *  allocation and the policy's per-request state. */
    RequestSlot slot = kInvalidSlot;

    /** Tokens generated; in a decode run this and the emission ticks
     *  lag by the run's unsynced steps (DecodeRun::sync). */
    TokenCount generated = 0;

    /** The cached peek, max(peek, generated): it holds while
     *  generated < predictedUntil (the peek's horizon) and
     *  predictedEpoch is the engine's prediction epoch. */
    TokenCount predicted = 0;
    TokenCount predictedUntil = 0;
    std::uint64_t predictedEpoch = 0;

    Tick firstToken = -1;
    Tick lastEmit = -1;
    Tick maxGap = 0;

    workload::RequestSpec spec;
    Tick arrival = 0;
    int evictions = 0;

    /** Admission order stamp for the eviction policy. */
    std::uint64_t admitSeq = 0;

    /** Prompt tokens still to process (split-fuse prefill). */
    TokenCount remainingPrompt = 0;

    /** KV lives in host memory awaiting swap-in. */
    bool swappedOut = false;

    /** Prompt tokens resident in shared prefix-cache blocks. */
    TokenCount cachedPrefix = 0;

    /** Admitted this iteration with migrated KV: it moves straight
     *  to running (no compute, no emission — the first token came
     *  from the prefill pool). */
    bool migratedAdmit = false;

    /** The block-hash chain of its stream (prefix-cache mode), see
     *  SessionChainMemo. */
    std::vector<PrefixHash> hashes;

    /** Prediction-audit membership mark (see PredictionAudit). */
    std::uint64_t auditMark = 0;

    /** Tokens generation will produce (EOS or cap). */
    TokenCount targetOutput() const { return spec.effectiveOutputLen(); }

    /** Emitted, evicted or swapped out: its KV rebuild and emission
     *  records live on this engine, so it never moves elsewhere. */
    bool
    holdsHistory() const
    {
        return generated > 0 || evictions > 0 || swappedOut;
    }

    /** Prompt tokens whose KV is resident via disaggregated
     *  migration: 0 once any local history exists (an eviction or
     *  swap drops the migrated copy; the prompt recomputes). */
    TokenCount
    migratedResident() const
    {
        return holdsHistory() ? 0 : spec.migratedPrefix;
    }

    /** Mark a token emission at `tick`. */
    void
    recordEmission(Tick tick)
    {
        if (firstToken < 0)
            firstToken = tick;
        if (lastEmit >= 0)
            maxGap = std::max(maxGap, tick - lastEmit);
        lastEmit = tick;
    }
};

} // namespace engine
} // namespace lightllm

#endif // LIGHTLLM_ENGINE_ENGINE_REQUEST_HH
