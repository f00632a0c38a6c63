/**
 * @file
 * `memory` — modeling memory retrieval in sentence comprehension.
 *
 * Hierarchical Bayesian model after Nicenboim & Vasishth (2016): a
 * direct-access (content-addressable) retrieval account in which each
 * participant has random effects on both retrieval accuracy (logistic)
 * and retrieval latency (lognormal), with memory load as the
 * experimental manipulation.
 */
#pragma once

#include "workloads/workload.hpp"

namespace bayes::workloads {

/** Hierarchical retrieval accuracy + latency workload. */
class MemoryRetrieval : public Workload
{
  public:
    explicit MemoryRetrieval(double dataScale = 1.0);

    double logProb(const ppl::ParamView<double>& p) const override;
    ad::Var logProb(const ppl::ParamView<ad::Var>& p) const override;
    double logProbScalar(const ppl::ParamView<double>& p) const override;
    ad::Var logProbScalar(const ppl::ParamView<ad::Var>& p) const override;

    /** Number of participants. */
    std::size_t numSubjects() const { return numSubjects_; }

    /** Number of trials. */
    std::size_t numTrials() const { return accuracy_.size(); }

    /** Parameter block indices. */
    enum Block : std::size_t
    {
        kAlpha,     ///< grand accuracy intercept (logit)
        kBetaLoad,  ///< accuracy cost per unit memory load
        kSigmaU,    ///< accuracy random-effect scale, > 0
        kU,         ///< per-subject accuracy effects
        kMuRt,      ///< grand log-latency intercept
        kGammaLoad, ///< latency cost per unit memory load
        kDeltaAcc,  ///< latency shift on correct retrievals
        kSigmaV,    ///< latency random-effect scale, > 0
        kV,         ///< per-subject latency effects
        kSigmaRt,   ///< lognormal observation noise, > 0
    };

  private:
    template <typename T>
    T logDensity(const ppl::ParamView<T>& p) const;
    template <typename T>
    T logDensityScalar(const ppl::ParamView<T>& p) const;

    std::size_t numSubjects_;
    std::vector<int> subject_;
    std::vector<double> load_;
    std::vector<int> accuracy_;
    std::vector<double> rt_;

    // Fused-path views of the same data, built once in the constructor.
    std::vector<double> negLoad_;   ///< accuracy design column, -load
    std::vector<double> latDesign_; ///< latency design rows {load, acc}
    std::vector<double> logRt_;     ///< log rt, the lognormal's normal
    double logRtSum_ = 0.0;         ///< Σ log rt (lognormal Jacobian)
};

} // namespace bayes::workloads
