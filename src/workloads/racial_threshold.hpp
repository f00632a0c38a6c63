/**
 * @file
 * `racial` — testing for racial bias in vehicle searches by police.
 *
 * Hierarchical threshold-test model after Simoiu, Corbett-Davies &
 * Goel (2017): per department and race group, the search decision and
 * its hit rate share latent structure; race-level search thresholds
 * below the white baseline indicate discriminatory standards of
 * evidence. Data are aggregated stop/search/hit counts in the shape of
 * the North Carolina dataset.
 */
#pragma once

#include "workloads/workload.hpp"

namespace bayes::workloads {

/** Hierarchical threshold-test workload. */
class RacialThreshold : public Workload
{
  public:
    explicit RacialThreshold(double dataScale = 1.0);

    double logProb(const ppl::ParamView<double>& p) const override;
    ad::Var logProb(const ppl::ParamView<ad::Var>& p) const override;
    double logProbScalar(const ppl::ParamView<double>& p) const override;
    ad::Var logProbScalar(const ppl::ParamView<ad::Var>& p) const override;

    /** Number of police departments. */
    std::size_t numDepartments() const { return numDepartments_; }

    /** Number of race groups. */
    std::size_t numRaces() const { return numRaces_; }

    /** Parameter block indices. */
    enum Block : std::size_t
    {
        kMuSearch,    ///< per-race search propensity (logit)
        kMuHit,       ///< per-race hit rate (logit)
        kSigmaDept,   ///< department heterogeneity, > 0
        kDeptSearch,  ///< per-department search effect
        kDeptHit,     ///< per-department hit effect
    };

  private:
    template <typename T>
    T logDensity(const ppl::ParamView<T>& p) const;
    template <typename T>
    T logDensityScalar(const ppl::ParamView<T>& p) const;

    std::size_t numDepartments_;
    std::size_t numRaces_;
    std::vector<long> stops_;    ///< [dept * races + race]
    std::vector<long> searches_;
    std::vector<long> hits_;

    // Fused-path constants, computed once in the constructor.
    double searchLchoose_ = 0.0; ///< Σ lchoose(stops, searches)
    double hitLchoose_ = 0.0;    ///< Σ lchoose(searches, hits)
    std::vector<double> ones_;   ///< per-department unit weights
};

} // namespace bayes::workloads
