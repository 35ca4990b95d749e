// SCM-driven synthetic workload generator. The two paper datasets top out
// at 38K rows; the scale experiments (ingest throughput, warm-index
// pipelines, multi-threaded mining) need paper-shaped data at 100K–5M
// rows. This generator builds a parameterized structural causal model with
// the same anatomy as the German / StackOverflow SCMs — a protected root,
// skewed immutable grouping attributes, confounded mutable treatment
// attributes, and a numeric outcome with planted positive effects — but
// every dimension is a knob: row count, attribute counts, cardinality,
// protected-group prevalence and skew, effect attenuation for the
// protected group, and cross-subgroup effect heterogeneity.

#ifndef FAIRCAP_INGEST_SYNTHETIC_H_
#define FAIRCAP_INGEST_SYNTHETIC_H_

#include "data/scm.h"
#include "mining/pattern.h"

namespace faircap {

/// Knobs for the generator. Defaults produce a small-schema dataset whose
/// pipeline cost is dominated by row count, which is what the scale
/// benchmarks want.
struct SyntheticConfig {
  size_t num_rows = 100000;
  uint64_t seed = 1;

  /// Immutable grouping attributes (besides the protected root "Group").
  size_t num_immutable = 3;
  /// Mutable treatment attributes.
  size_t num_mutable = 3;
  /// Categories per generated attribute (>= 2).
  size_t categories_per_attr = 3;

  /// P(Group = protected); the protected pattern is `Group = protected`.
  double protected_fraction = 0.2;
  /// How differently the immutable attributes distribute inside the
  /// protected group (0 = identical distributions, 1 = strongly skewed).
  double group_skew = 0.5;
  /// Multiplier on treatment effects for protected rows (1 = fair world).
  double protected_attenuation = 0.5;
  /// Cross-subgroup variation of treatment effects: each immutable
  /// attribute level scales the planted effects by up to this fraction
  /// (0 = homogeneous effects everywhere).
  double effect_heterogeneity = 0.5;

  /// Outcome scale: the strongest treatment level adds about this much.
  double effect_scale = 100.0;
  double noise_stddev = 25.0;
  /// Round the outcome to the nearest integer (a score/count-style
  /// outcome). Sums of integer outcomes are exact in double, so appends
  /// reproduce a cold run's estimates bit for bit; this knob is how
  /// benches and tests exercise that case at scale.
  bool integer_outcome = false;
};

/// A generated dataset with its ground truth.
struct SyntheticData {
  DataFrame df;
  CausalDag dag;
  Pattern protected_pattern;  ///< Group = protected
};

/// Builds the SCM (inspectable ground truth for tests).
Result<Scm> MakeSyntheticScm(const SyntheticConfig& config = {});

/// Generates the dataset, DAG, and protected pattern.
Result<SyntheticData> MakeSynthetic(const SyntheticConfig& config = {});

}  // namespace faircap

#endif  // FAIRCAP_INGEST_SYNTHETIC_H_
