#include "workloads/racial_threshold.hpp"

#include <cmath>
#include <span>

#include "math/distributions.hpp"
#include "math/vec_kernels.hpp"

namespace bayes::workloads {

RacialThreshold::RacialThreshold(double dataScale)
    : Workload(
          WorkloadInfo{
              "racial", "Hierarchical Bayesian",
              "Testing for racial bias in vehicle searches by police",
              "Simoiu et al. 2017 [23]",
              "4.5M North Carolina police stops (aggregated)",
              /*defaultIterations=*/1400},
          dataScale)
{
    Rng rng = dataRng();
    numDepartments_ = scaled(25);
    numRaces_ = 4;

    std::vector<double> muSearchTrue = {-2.2, -1.7, -1.8, -2.0};
    std::vector<double> muHitTrue = {0.2, -0.4, -0.3, 0.0};
    const double sigmaDeptTrue = 0.4;

    for (std::size_t d = 0; d < numDepartments_; ++d) {
        const double deptSearch = rng.normal(0.0, sigmaDeptTrue);
        const double deptHit = rng.normal(0.0, sigmaDeptTrue);
        for (std::size_t r = 0; r < numRaces_; ++r) {
            const long stops = 150 + static_cast<long>(rng.uniformInt(1200));
            const double pSearch =
                math::invLogit(muSearchTrue[r] + deptSearch);
            const long searched = rng.binomial(stops, pSearch);
            const double pHit = math::invLogit(muHitTrue[r] + deptHit);
            const long hit = rng.binomial(searched, pHit);
            stops_.push_back(stops);
            searches_.push_back(searched);
            hits_.push_back(hit);
        }
    }

    searchLchoose_ = math::binomial_lchoose_sum(
        std::span<const long>(searches_), std::span<const long>(stops_));
    hitLchoose_ = math::binomial_lchoose_sum(
        std::span<const long>(hits_), std::span<const long>(searches_));
    ones_.assign(numDepartments_, 1.0);

    setModeledDataBytes((stops_.size() + searches_.size() + hits_.size())
                        * sizeof(long));

    setLayout({
        {"mu_search", numRaces_, ppl::TransformKind::Identity, 0, 0},
        {"mu_hit", numRaces_, ppl::TransformKind::Identity, 0, 0},
        {"sigma_dept", 1, ppl::TransformKind::LowerBound, 0.0, 0},
        {"dept_search", numDepartments_, ppl::TransformKind::Identity, 0, 0},
        {"dept_hit", numDepartments_, ppl::TransformKind::Identity, 0, 0},
    });
}

template <typename T>
T
RacialThreshold::logDensity(const ppl::ParamView<T>& p) const
{
    using namespace bayes::math;
    const T& sigmaDept = p.scalar(kSigmaDept);

    T lp = normal_lpdf(sigmaDept, 0.0, 1.0);
    lp += normal_lpdf_vec(p.block(kMuSearch), -2.0, 1.5);
    lp += normal_lpdf_vec(p.block(kMuHit), 0.0, 1.5);
    // Non-centered department effects with the soft sum-to-zero
    // constraint of the scalar twin below.
    lp += std_normal_lpdf_vec(p.block(kDeptSearch));
    lp += std_normal_lpdf_vec(p.block(kDeptHit));
    const std::span<const double> ones(ones_);
    const double softScale =
        0.01 * std::sqrt(static_cast<double>(numDepartments_));
    lp += normal_lpdf(dot_vec(p.block(kDeptSearch), ones), 0.0, softScale);
    lp += normal_lpdf(dot_vec(p.block(kDeptHit), ones), 0.0, softScale);

    // One logit per (department, race) cell, then one binomial pass per
    // layer. Cells with no searches drop out of the hit layer inside
    // the kernel, as the scalar twin skips them.
    std::vector<T> etaSearch(stops_.size()), etaHit(stops_.size());
    for (std::size_t d = 0; d < numDepartments_; ++d) {
        const T deptSearch = sigmaDept * p.at(kDeptSearch, d);
        const T deptHit = sigmaDept * p.at(kDeptHit, d);
        for (std::size_t r = 0; r < numRaces_; ++r) {
            etaSearch[d * numRaces_ + r] = p.at(kMuSearch, r) + deptSearch;
            etaHit[d * numRaces_ + r] = p.at(kMuHit, r) + deptHit;
        }
    }
    lp += binomial_logit_lpmf_vec(std::span<const long>(searches_),
                                  std::span<const long>(stops_),
                                  std::span<const T>(etaSearch),
                                  searchLchoose_);
    lp += binomial_logit_lpmf_vec(std::span<const long>(hits_),
                                  std::span<const long>(searches_),
                                  std::span<const T>(etaHit), hitLchoose_);
    return lp;
}

template <typename T>
T
RacialThreshold::logDensityScalar(const ppl::ParamView<T>& p) const
{
    using namespace bayes::math;
    const T& sigmaDept = p.scalar(kSigmaDept);

    T lp = normal_lpdf(sigmaDept, 0.0, 1.0);
    for (std::size_t r = 0; r < numRaces_; ++r) {
        // bayes-lint: allow(R007): retained scalar twin; fused path above
        lp += normal_lpdf(p.at(kMuSearch, r), -2.0, 1.5);
        // bayes-lint: allow(R007): retained scalar twin; fused path above
        lp += normal_lpdf(p.at(kMuHit, r), 0.0, 1.5);
    }
    // Non-centered department effects (the Stan original's trick),
    // with a soft sum-to-zero constraint: the race-level means and the
    // department effects are otherwise only jointly identified, which
    // stalls mixing along the translation ridge.
    std::vector<T> deptSearch(numDepartments_), deptHit(numDepartments_);
    T searchSum = 0.0, hitSum = 0.0;
    for (std::size_t d = 0; d < numDepartments_; ++d) {
        // bayes-lint: allow(R007): retained scalar twin; fused path above
        lp += std_normal_lpdf(p.at(kDeptSearch, d));
        // bayes-lint: allow(R007): retained scalar twin; fused path above
        lp += std_normal_lpdf(p.at(kDeptHit, d));
        deptSearch[d] = sigmaDept * p.at(kDeptSearch, d);
        deptHit[d] = sigmaDept * p.at(kDeptHit, d);
        searchSum += p.at(kDeptSearch, d);
        hitSum += p.at(kDeptHit, d);
    }
    const double softScale =
        0.01 * std::sqrt(static_cast<double>(numDepartments_));
    lp += normal_lpdf(searchSum, 0.0, softScale);
    lp += normal_lpdf(hitSum, 0.0, softScale);

    for (std::size_t d = 0; d < numDepartments_; ++d) {
        for (std::size_t r = 0; r < numRaces_; ++r) {
            const std::size_t cell = d * numRaces_ + r;
            const T etaSearch = p.at(kMuSearch, r) + deptSearch[d];
            // bayes-lint: allow(R007): retained scalar twin; fused path above
            lp += binomial_logit_lpmf(searches_[cell], stops_[cell],
                                      etaSearch);
            if (searches_[cell] > 0) {
                const T etaHit = p.at(kMuHit, r) + deptHit[d];
                // bayes-lint: allow(R007): retained scalar twin; fused path above
                lp += binomial_logit_lpmf(hits_[cell], searches_[cell],
                                          etaHit);
            }
        }
    }
    return lp;
}

double
RacialThreshold::logProb(const ppl::ParamView<double>& p) const
{
    return logDensity(p);
}

ad::Var
RacialThreshold::logProb(const ppl::ParamView<ad::Var>& p) const
{
    return logDensity(p);
}

double
RacialThreshold::logProbScalar(const ppl::ParamView<double>& p) const
{
    return logDensityScalar(p);
}

ad::Var
RacialThreshold::logProbScalar(const ppl::ParamView<ad::Var>& p) const
{
    return logDensityScalar(p);
}

} // namespace bayes::workloads
