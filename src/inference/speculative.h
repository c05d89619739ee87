/**
 * @file
 * Speculative decoding extension.
 *
 * The paper shows the auto-regressive generation phase is DRAM-bound:
 * every token streams the full weights (Sec. 6.1). Speculative
 * decoding exploits exactly that headroom — a small draft model
 * proposes gamma tokens, the target model verifies them in ONE
 * parallel pass (weights stream once for gamma+1 tokens). This module
 * predicts the achievable speedup from the same roofline primitives.
 */

#ifndef OPTIMUS_INFERENCE_SPECULATIVE_H
#define OPTIMUS_INFERENCE_SPECULATIVE_H

#include "hw/system.h"
#include "workload/model_config.h"

namespace optimus {

/** Speculative-decoding scenario. */
struct SpeculativeOptions
{
    Precision precision = Precision::FP16;
    long long tensorParallel = 1;
    long long context = 400;       ///< current sequence length
    long long gamma = 4;           ///< draft tokens per cycle
    double acceptanceRate = 0.8;   ///< per-token draft acceptance
};

/** Predicted steady-state behaviour of one speculation cycle. */
struct SpeculativeReport
{
    double draftStepTime = 0.0;        ///< one draft decode step
    double verifyTime = 0.0;           ///< target parallel check
    double cycleTime = 0.0;            ///< gamma drafts + verify
    double expectedTokensPerCycle = 0.0;
    double tokensPerSecond = 0.0;
    double baselineTokensPerSecond = 0.0;  ///< plain decoding
    double speedup = 0.0;
};

/**
 * Evaluate speculative decoding of @p target assisted by @p draft.
 *
 * Expected tokens per cycle follows Leviathan et al.:
 *   E[n] = (1 - a^(gamma+1)) / (1 - a)
 * with per-token acceptance rate a. Gate: both models, the system and
 * lint::lintInferenceMapping of the target at its TP, the draft at 1.
 */
SpeculativeReport evaluateSpeculative(const TransformerConfig &target,
                                      const TransformerConfig &draft,
                                      const System &sys,
                                      const SpeculativeOptions &opts);

} // namespace optimus

#endif // OPTIMUS_INFERENCE_SPECULATIVE_H
