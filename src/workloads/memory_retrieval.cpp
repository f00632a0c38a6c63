#include "workloads/memory_retrieval.hpp"

#include <cmath>
#include <span>

#include "math/distributions.hpp"
#include "math/vec_kernels.hpp"

namespace bayes::workloads {

MemoryRetrieval::MemoryRetrieval(double dataScale)
    : Workload(
          WorkloadInfo{
              "memory", "Hierarchical Bayesian",
              "Modeling memory retrieval in sentence comprehension",
              "Nicenboim & Vasishth 2016 [18]",
              "recall accuracy and latency under memory load",
              /*defaultIterations=*/1200},
          dataScale)
{
    Rng rng = dataRng();
    numSubjects_ = 20;
    const std::size_t trialsPer = scaled(18);

    const double alphaTrue = 1.2;
    const double betaLoadTrue = 0.45;
    const double sigmaUTrue = 0.6;
    const double muRtTrue = 6.4; // log milliseconds
    const double gammaLoadTrue = 0.12;
    const double deltaAccTrue = -0.15;
    const double sigmaVTrue = 0.25;
    const double sigmaRtTrue = 0.3;

    for (std::size_t s = 0; s < numSubjects_; ++s) {
        const double u = rng.normal(0.0, sigmaUTrue);
        const double v = rng.normal(0.0, sigmaVTrue);
        for (std::size_t t = 0; t < trialsPer; ++t) {
            const double load = static_cast<double>(rng.uniformInt(4)) + 1.0;
            const double etaAcc = alphaTrue + u - betaLoadTrue * (load - 2.5);
            const int acc = rng.bernoulli(math::invLogit(etaAcc));
            const double muLat = muRtTrue + v + gammaLoadTrue * (load - 2.5)
                + deltaAccTrue * acc;
            subject_.push_back(static_cast<int>(s));
            load_.push_back(load - 2.5);
            accuracy_.push_back(acc);
            rt_.push_back(std::exp(rng.normal(muLat, sigmaRtTrue)));
        }
    }

    for (std::size_t i = 0; i < rt_.size(); ++i) {
        negLoad_.push_back(-load_[i]);
        latDesign_.push_back(load_[i]);
        latDesign_.push_back(static_cast<double>(accuracy_[i]));
        logRt_.push_back(std::log(rt_[i]));
        logRtSum_ += logRt_.back();
    }

    setModeledDataBytes(subject_.size() * sizeof(int)
                        + accuracy_.size() * sizeof(int)
                        + (load_.size() + rt_.size()) * sizeof(double));

    setLayout({
        {"alpha", 1, ppl::TransformKind::Identity, 0, 0},
        {"beta_load", 1, ppl::TransformKind::Identity, 0, 0},
        {"sigma_u", 1, ppl::TransformKind::LowerBound, 0.0, 0},
        {"u", numSubjects_, ppl::TransformKind::Identity, 0, 0},
        {"mu_rt", 1, ppl::TransformKind::Identity, 0, 0},
        {"gamma_load", 1, ppl::TransformKind::Identity, 0, 0},
        {"delta_acc", 1, ppl::TransformKind::Identity, 0, 0},
        {"sigma_v", 1, ppl::TransformKind::LowerBound, 0.0, 0},
        {"v", numSubjects_, ppl::TransformKind::Identity, 0, 0},
        {"sigma_rt", 1, ppl::TransformKind::LowerBound, 0.0, 0},
    });
}

template <typename T>
T
MemoryRetrieval::logDensity(const ppl::ParamView<T>& p) const
{
    using namespace bayes::math;
    const T& alpha = p.scalar(kAlpha);
    const T& betaLoad = p.scalar(kBetaLoad);
    const T& sigmaU = p.scalar(kSigmaU);
    const T& muRt = p.scalar(kMuRt);
    const T& sigmaV = p.scalar(kSigmaV);
    const T& sigmaRt = p.scalar(kSigmaRt);

    T lp = normal_lpdf(alpha, 0.0, 2.0) + normal_lpdf(betaLoad, 0.0, 1.0)
        + normal_lpdf(sigmaU, 0.0, 1.0) + normal_lpdf(muRt, 6.0, 1.0)
        + normal_lpdf(p.scalar(kGammaLoad), 0.0, 0.5)
        + normal_lpdf(p.scalar(kDeltaAcc), 0.0, 0.5)
        + normal_lpdf(sigmaV, 0.0, 1.0) + normal_lpdf(sigmaRt, 0.0, 1.0);
    lp += std_normal_lpdf_vec(p.block(kU));
    lp += std_normal_lpdf_vec(p.block(kV));

    // Non-centered random effects folded into per-subject intercepts,
    // so each likelihood layer is one grouped GLM pass over the trials.
    std::vector<T> accIntercept(numSubjects_), latIntercept(numSubjects_);
    for (std::size_t s = 0; s < numSubjects_; ++s) {
        accIntercept[s] = alpha + sigmaU * p.at(kU, s);
        latIntercept[s] = muRt + sigmaV * p.at(kV, s);
    }
    const std::span<const int> group(subject_);
    lp += bernoulli_logit_glm_lpmf(std::span<const int>(accuracy_),
                                   std::span<const double>(negLoad_), group,
                                   std::span<const T>(accIntercept),
                                   std::span<const T>(&betaLoad, 1));
    // lognormal(rt | mu, sigma) = normal(log rt | mu, sigma) - log rt.
    const T latCoef[] = {p.scalar(kGammaLoad), p.scalar(kDeltaAcc)};
    lp += normal_id_glm_lpdf(std::span<const double>(logRt_),
                             std::span<const double>(latDesign_), group,
                             std::span<const T>(latIntercept),
                             std::span<const T>(latCoef), sigmaRt);
    lp -= logRtSum_;
    return lp;
}

template <typename T>
T
MemoryRetrieval::logDensityScalar(const ppl::ParamView<T>& p) const
{
    using namespace bayes::math;
    const T& alpha = p.scalar(kAlpha);
    const T& betaLoad = p.scalar(kBetaLoad);
    const T& sigmaU = p.scalar(kSigmaU);
    const T& muRt = p.scalar(kMuRt);
    const T& gammaLoad = p.scalar(kGammaLoad);
    const T& deltaAcc = p.scalar(kDeltaAcc);
    const T& sigmaV = p.scalar(kSigmaV);
    const T& sigmaRt = p.scalar(kSigmaRt);

    T lp = normal_lpdf(alpha, 0.0, 2.0) + normal_lpdf(betaLoad, 0.0, 1.0)
        + normal_lpdf(sigmaU, 0.0, 1.0) + normal_lpdf(muRt, 6.0, 1.0)
        + normal_lpdf(gammaLoad, 0.0, 0.5)
        + normal_lpdf(deltaAcc, 0.0, 0.5) + normal_lpdf(sigmaV, 0.0, 1.0)
        + normal_lpdf(sigmaRt, 0.0, 1.0);

    // Non-centered random effects: u = sigma_u * u_raw, v = sigma_v *
    // v_raw, with standard-normal raws — the parameterization the Stan
    // originals use to avoid funnel geometry.
    std::vector<T> u(numSubjects_), v(numSubjects_);
    for (std::size_t s = 0; s < numSubjects_; ++s) {
        // bayes-lint: allow(R007): retained scalar twin; fused path above
        lp += std_normal_lpdf(p.at(kU, s));
        // bayes-lint: allow(R007): retained scalar twin; fused path above
        lp += std_normal_lpdf(p.at(kV, s));
        u[s] = sigmaU * p.at(kU, s);
        v[s] = sigmaV * p.at(kV, s);
    }

    for (std::size_t i = 0; i < accuracy_.size(); ++i) {
        const auto s = static_cast<std::size_t>(subject_[i]);
        const T etaAcc = alpha + u[s] - betaLoad * load_[i];
        // bayes-lint: allow(R007): retained scalar twin; fused path above
        lp += bernoulli_logit_lpmf(accuracy_[i], etaAcc);
        const T muLat = muRt + v[s] + gammaLoad * load_[i]
            + deltaAcc * static_cast<double>(accuracy_[i]);
        // bayes-lint: allow(R007): retained scalar twin; fused path above
        lp += lognormal_lpdf(rt_[i], muLat, sigmaRt);
    }
    return lp;
}

double
MemoryRetrieval::logProb(const ppl::ParamView<double>& p) const
{
    return logDensity(p);
}

ad::Var
MemoryRetrieval::logProb(const ppl::ParamView<ad::Var>& p) const
{
    return logDensity(p);
}

double
MemoryRetrieval::logProbScalar(const ppl::ParamView<double>& p) const
{
    return logDensityScalar(p);
}

ad::Var
MemoryRetrieval::logProbScalar(const ppl::ParamView<ad::Var>& p) const
{
    return logDensityScalar(p);
}

} // namespace bayes::workloads
