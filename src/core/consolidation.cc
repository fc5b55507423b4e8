#include "core/consolidation.h"

#include "core/dyn_sgd.h"
#include "util/logging.h"

namespace hetps {

void ConsolidationRule::OnPull(int worker, int cmax) {
  (void)worker;
  (void)cmax;
}

void ConsolidationRule::OnWorkerReadmitted(int worker, int clock) {
  (void)worker;
  (void)clock;
}

std::vector<double> ConsolidationRule::Materialize(
    const ParamBlock& w) const {
  return w.ToDense();
}

std::vector<double> ConsolidationRule::MaterializeAtVersion(
    const ParamBlock& w, int64_t version) const {
  (void)version;
  return Materialize(w);
}

Status ConsolidationRule::SaveState(std::ostream& os) const {
  os << "stateless\n";
  return os ? Status::OK() : Status::IOError("checkpoint write failed");
}

Status ReadCheckpointEntries(std::istream& is, size_t nnz, size_t dim,
                             SparseVector* out) {
  *out = SparseVector();
  for (size_t i = 0; i < nnz; ++i) {
    int64_t idx = 0;
    double value = 0.0;
    if (!(is >> idx >> value)) {
      return Status::IOError("truncated checkpoint entries");
    }
    if (idx < 0 || static_cast<uint64_t>(idx) >= dim ||
        (i > 0 && idx <= out->index(i - 1))) {
      return Status::IOError("checkpoint entry index " + std::to_string(idx) +
                             " is out of order or out of range");
    }
    out->PushBack(idx, value);
  }
  return Status::OK();
}

Status ConsolidationRule::LoadState(std::istream& is) {
  std::string tag;
  if (!(is >> tag) || tag != "stateless") {
    return Status::IOError("bad stateless-rule checkpoint tag: " + tag);
  }
  return Status::OK();
}

void SspRule::Reset(size_t dim, int num_workers) {
  (void)dim;
  (void)num_workers;
}

void SspRule::OnPush(int worker, int clock, const SparseVector& update,
                     ParamBlock* w) {
  (void)worker;
  (void)clock;
  w->Add(update);
}

std::unique_ptr<ConsolidationRule> SspRule::Clone() const {
  return std::make_unique<SspRule>();
}

ConRule::ConRule(double lambda_g)
    : use_inverse_m_(false), lambda_g_(lambda_g) {
  HETPS_CHECK(lambda_g > 0.0 && lambda_g <= 1.0)
      << "lambda_g must be in (0, 1]";
}

void ConRule::Reset(size_t dim, int num_workers) {
  (void)dim;
  HETPS_CHECK(num_workers > 0) << "need at least one worker";
  if (use_inverse_m_) {
    lambda_g_ = 1.0 / static_cast<double>(num_workers);
  }
}

void ConRule::OnPush(int worker, int clock, const SparseVector& update,
                     ParamBlock* w) {
  (void)worker;
  (void)clock;
  w->Add(update, lambda_g_);
}

std::unique_ptr<ConsolidationRule> ConRule::Clone() const {
  auto clone = std::make_unique<ConRule>();
  clone->use_inverse_m_ = use_inverse_m_;
  clone->lambda_g_ = lambda_g_;
  return clone;
}

std::unique_ptr<ConsolidationRule> MakeConsolidationRule(
    const std::string& name) {
  if (name == "ssp") return std::make_unique<SspRule>();
  if (name == "con") return std::make_unique<ConRule>();
  if (name == "dyn") return std::make_unique<DynSgdRule>();
  HETPS_LOG(Fatal) << "unknown consolidation rule: " << name;
  return nullptr;
}

}  // namespace hetps
