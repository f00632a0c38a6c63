#include "samplers/mh.hpp"

#include <algorithm>
#include <cmath>

namespace bayes::samplers {

MhSampler::MhSampler(ppl::Evaluator& eval)
    : eval_(&eval),
      scale_(2.38 / std::sqrt(static_cast<double>(eval.dim())))
{
}

void
MhSampler::adaptScale(double acceptProb)
{
    ++adaptCount_;
    const double rate = 1.0 / std::sqrt(static_cast<double>(adaptCount_));
    scale_ *= std::exp(rate * (acceptProb - kTargetAccept));
    scale_ = std::clamp(scale_, 1e-6, 1e3);
}

MhTransition
MhSampler::transition(std::vector<double>& q, double& logProb, Rng& rng)
{
    std::vector<double> proposal;
    propose(q, rng, proposal);
    const double proposalLogProb = eval_->logProb(proposal);
    return finish(q, logProb, proposal, proposalLogProb, rng);
}

MhTransition
MhSampler::finish(std::vector<double>& q, double& logProb,
                  std::vector<double>& proposal, double proposalLogProb,
                  Rng& rng)
{
    MhTransition result;
    const double logRatio = proposalLogProb - logProb;
    result.acceptProb = std::min(1.0, std::exp(std::min(logRatio, 0.0)));
    // The accept draw is skipped for an infeasible proposal — keep the
    // short-circuit so the RNG stream matches the unbatched kernel.
    if (std::isfinite(proposalLogProb)
        && std::log(std::max(rng.uniform(), 1e-300)) < logRatio) {
        q = std::move(proposal);
        logProb = proposalLogProb;
        result.accepted = true;
    }
    return result;
}

} // namespace bayes::samplers
