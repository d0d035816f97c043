#include "core/checkpoint.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "bitmat/bitops.hpp"
#include "core/session.hpp"
#include "data/generator.hpp"
#include "util/rng.hpp"

namespace multihit {
namespace {

Dataset checkpoint_dataset() {
  SyntheticSpec spec;
  spec.genes = 40;
  spec.tumor_samples = 80;
  spec.normal_samples = 60;
  spec.hits = 3;
  spec.num_combinations = 4;
  spec.background_rate = 0.015;
  spec.seed = 717;
  return generate_dataset(spec);
}

TEST(Checkpoint, PausedPlusResumedEqualsStraightRun) {
  // The allocation-limit workflow: run 2 iterations, "lose the allocation",
  // resume — the combined selections must equal an uninterrupted run.
  const Dataset data = checkpoint_dataset();
  EngineConfig config;
  config.hits = 3;
  const Evaluator evaluator = make_kernel_evaluator(3);

  const GreedyResult straight = run_greedy(data.tumor, data.normal, config, evaluator);

  Engine first(data.tumor, data.normal, config, evaluator);
  EXPECT_EQ(first.step(2), 2u);
  CheckpointState state = first.checkpoint();
  EXPECT_EQ(state.progress.iterations.size(), 2u);
  EXPECT_GT(state.progress.uncovered_tumor, 0u);
  Engine resumed(std::move(state), data.normal, EngineConfig{}, evaluator);
  const GreedyResult& finished = resumed.run();

  ASSERT_EQ(finished.iterations.size(), straight.iterations.size());
  for (std::size_t i = 0; i < straight.iterations.size(); ++i) {
    EXPECT_EQ(finished.iterations[i].genes, straight.iterations[i].genes) << i;
    EXPECT_EQ(finished.iterations[i].tp, straight.iterations[i].tp) << i;
  }
  EXPECT_EQ(finished.uncovered_tumor, straight.uncovered_tumor);
}

TEST(Checkpoint, MultipleAllocationsOfOneIteration) {
  const Dataset data = checkpoint_dataset();
  EngineConfig config;
  config.hits = 3;
  const Evaluator evaluator = make_kernel_evaluator(3);
  const GreedyResult straight = run_greedy(data.tumor, data.normal, config, evaluator);

  Engine first(data.tumor, data.normal, config, evaluator);
  first.step(1);
  CheckpointState state = first.checkpoint();
  for (std::size_t round = 0; round < 50 && state.progress.uncovered_tumor > 0; ++round) {
    // Each allocation reopens the session from the previous one's snapshot.
    Engine allocation(std::move(state), data.normal, EngineConfig{}, evaluator);
    const std::uint32_t committed = allocation.step(1);
    state = allocation.checkpoint();
    if (committed == 0) break;  // no further coverage
  }
  ASSERT_EQ(state.progress.iterations.size(), straight.iterations.size());
  for (std::size_t i = 0; i < straight.iterations.size(); ++i) {
    EXPECT_EQ(state.progress.iterations[i].genes, straight.iterations[i].genes);
  }
}

TEST(Checkpoint, SerializationRoundTrip) {
  const Dataset data = checkpoint_dataset();
  EngineConfig config;
  config.hits = 3;
  Engine session(data.tumor, data.normal, config, make_kernel_evaluator(3));
  session.step(2);
  const CheckpointState original = session.checkpoint();

  std::stringstream buffer;
  write_checkpoint(buffer, original);
  const CheckpointState loaded = read_checkpoint(buffer);

  EXPECT_EQ(loaded.hits, original.hits);
  EXPECT_EQ(loaded.bit_splicing, original.bit_splicing);
  EXPECT_EQ(loaded.tumor, original.tumor);
  ASSERT_EQ(loaded.progress.iterations.size(), original.progress.iterations.size());
  for (std::size_t i = 0; i < original.progress.iterations.size(); ++i) {
    EXPECT_EQ(loaded.progress.iterations[i].genes, original.progress.iterations[i].genes);
    EXPECT_DOUBLE_EQ(loaded.progress.iterations[i].f, original.progress.iterations[i].f);
    EXPECT_EQ(loaded.progress.iterations[i].tp, original.progress.iterations[i].tp);
  }
  EXPECT_EQ(loaded.progress.uncovered_tumor, original.progress.uncovered_tumor);
}

TEST(Checkpoint, ResumeAfterSerializationMatchesStraightRun) {
  const Dataset data = checkpoint_dataset();
  EngineConfig config;
  config.hits = 3;
  const Evaluator evaluator = make_kernel_evaluator(3);
  const GreedyResult straight = run_greedy(data.tumor, data.normal, config, evaluator);

  Engine session(data.tumor, data.normal, config, evaluator);
  session.step(3);
  std::stringstream buffer;
  write_checkpoint(buffer, session.checkpoint());
  Engine restored(read_checkpoint(buffer), data.normal, EngineConfig{}, evaluator);
  const GreedyResult& finished = restored.run();

  ASSERT_EQ(finished.iterations.size(), straight.iterations.size());
  for (std::size_t i = 0; i < straight.iterations.size(); ++i) {
    EXPECT_EQ(finished.iterations[i].genes, straight.iterations[i].genes);
  }
  EXPECT_EQ(finished.uncovered_tumor, straight.uncovered_tumor);
}

/// FNV-1a over a whole checkpoint stream (header, payload and trailer).
std::uint64_t fnv1a_digest(const std::string& bytes) {
  std::uint64_t hash = 14695981039346656037ULL;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ULL;
  }
  return hash;
}

TEST(Checkpoint, GoldenDigestOfCover2ShapedGreedy) {
  // A wide 2-hit cover (300 genes x 1600 tumor samples) stepped 40
  // iterations: the checkpoint carries every selection and the tumor matrix
  // after 40 BitSplicing compactions, so any change to the splice's output
  // (or to the selections it feeds) moves this digest.
  SyntheticSpec spec;
  spec.genes = 300;
  spec.tumor_samples = 1600;
  spec.normal_samples = 1000;
  spec.hits = 2;
  spec.num_combinations = 60;
  spec.background_rate = 0.01;
  spec.seed = 501;
  const Dataset data = generate_dataset(spec);
  EngineConfig config;
  config.hits = 2;
  Engine session(data.tumor, data.normal, config, make_kernel_evaluator(2));
  ASSERT_EQ(session.step(40), 40u);
  const CheckpointState state = session.checkpoint();
  ASSERT_LT(state.tumor.samples(), spec.tumor_samples);
  std::stringstream buffer;
  write_checkpoint(buffer, state);
  EXPECT_EQ(fnv1a_digest(buffer.str()), 0xf87f201a9f2e147fULL);
}

TEST(Checkpoint, GoldenDigestHoldsOnEveryBackend) {
  // The cover2-shaped greedy above, once per supported bitops backend: the
  // splice's compress and the enumeration kernels are the backend's, the
  // checkpoint bytes may not be.
  SyntheticSpec spec;
  spec.genes = 300;
  spec.tumor_samples = 1600;
  spec.normal_samples = 1000;
  spec.hits = 2;
  spec.num_combinations = 60;
  spec.background_rate = 0.01;
  spec.seed = 501;
  const Dataset data = generate_dataset(spec);
  EngineConfig config;
  config.hits = 2;
  const BitopsBackend previous = active_backend();
  for (const BitopsBackend backend : {BitopsBackend::kScalar, BitopsBackend::kAvx2}) {
    if (!backend_supported(backend)) continue;
    SCOPED_TRACE(backend_name(backend));
    ASSERT_TRUE(set_backend(backend));
    Engine session(data.tumor, data.normal, config, make_kernel_evaluator(2));
    const std::size_t steps = session.step(40);
    std::stringstream buffer;
    write_checkpoint(buffer, session.checkpoint());
    set_backend(previous);
    ASSERT_EQ(steps, 40u);
    EXPECT_EQ(fnv1a_digest(buffer.str()), 0xf87f201a9f2e147fULL);
  }
}

TEST(Checkpoint, RejectsMalformedInput) {
  {
    std::stringstream buffer("wrong\n");
    EXPECT_THROW(read_checkpoint(buffer), std::runtime_error);
  }
  {
    std::stringstream buffer("multihit-checkpoint v1\nhits 3\n");
    EXPECT_THROW(read_checkpoint(buffer), std::runtime_error);
  }
  {
    // Iteration with wrong gene count for hits=3.
    std::stringstream buffer(
        "multihit-checkpoint v1\nhits 3\nbit-splicing 1\nuncovered 0\n"
        "iterations 1\niter 0.5 3 10 5 2 1 2\ntumor 4 4\nend\n");
    EXPECT_THROW(read_checkpoint(buffer), std::runtime_error);
  }
}

TEST(Checkpoint, RejectsOversizedTumorBeforeAllocating) {
  // Each dimension is under its own cap, but genes x words per row is not:
  // these once reached the BitMatrix constructor and threw std::bad_alloc
  // (the second under a 4 GB address-space limit) instead of the documented
  // error.
  for (const char* dims : {"10000000 100000000", "100000 3000000"}) {
    SCOPED_TRACE(dims);
    std::stringstream buffer(std::string("multihit-checkpoint v2\nhits 2\nbit-splicing 1\n"
                                         "uncovered 0\niterations 0\ntumor ") +
                             dims + "\n");
    try {
      read_checkpoint(buffer);
      ADD_FAILURE() << "oversized tumor accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("malformed checkpoint: tumor matrix too large"),
                std::string::npos)
          << e.what();
    }
  }
}

// --- serialization properties ------------------------------------------------

/// Arbitrary-but-valid state: random dimensions, random sparse bits, random
/// full-precision F values. Exercises corners a greedy run never produces
/// (zero iterations, empty matrices, extreme doubles).
CheckpointState random_state(std::uint64_t seed) {
  Rng rng(seed);
  CheckpointState state;
  state.hits = 2 + static_cast<std::uint32_t>(rng.uniform(4));  // 2..5
  state.bit_splicing = rng.bernoulli(0.5);
  const std::uint32_t genes = 2 + static_cast<std::uint32_t>(rng.uniform(20));
  const std::uint32_t samples = static_cast<std::uint32_t>(rng.uniform(70));  // 0 allowed
  state.tumor = BitMatrix(genes, samples);
  for (std::uint32_t g = 0; g < genes; ++g) {
    for (std::uint32_t s = 0; s < samples; ++s) {
      if (rng.bernoulli(0.2)) state.tumor.set(g, s);
    }
  }
  const std::uint64_t iterations = rng.uniform(5);  // 0 allowed
  for (std::uint64_t i = 0; i < iterations; ++i) {
    IterationRecord record;
    for (const std::uint64_t g :
         rng.sample_without_replacement(genes, std::min<std::uint64_t>(state.hits, genes))) {
      record.genes.push_back(static_cast<std::uint32_t>(g));
    }
    while (record.genes.size() < state.hits) record.genes.push_back(genes - 1);
    // Full-mantissa doubles, including denormal-ish and huge magnitudes —
    // the round trip must be bit-exact, not approximately equal.
    record.f = (rng.uniform_double() - 0.5) * std::pow(10.0, rng.uniform_range(-12, 12));
    record.tp = rng.uniform(1000);
    record.tn = rng.uniform(1000);
    record.tumor_remaining_before = static_cast<std::uint32_t>(rng.uniform(samples + 1));
    record.tumor_remaining_after = static_cast<std::uint32_t>(rng.uniform(samples + 1));
    state.progress.iterations.push_back(std::move(record));
  }
  state.progress.uncovered_tumor = static_cast<std::uint32_t>(rng.uniform(samples + 1));
  return state;
}

TEST(CheckpointProperty, RandomStatesSurviveRoundTripBitExactly) {
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    const CheckpointState original = random_state(seed);
    std::stringstream buffer;
    write_checkpoint(buffer, original);
    const CheckpointState loaded = read_checkpoint(buffer);
    EXPECT_EQ(loaded.hits, original.hits) << "seed " << seed;
    EXPECT_EQ(loaded.bit_splicing, original.bit_splicing) << "seed " << seed;
    EXPECT_EQ(loaded.tumor, original.tumor) << "seed " << seed;
    EXPECT_EQ(loaded.progress.uncovered_tumor, original.progress.uncovered_tumor);
    ASSERT_EQ(loaded.progress.iterations.size(), original.progress.iterations.size());
    for (std::size_t i = 0; i < original.progress.iterations.size(); ++i) {
      const auto& got = loaded.progress.iterations[i];
      const auto& want = original.progress.iterations[i];
      EXPECT_EQ(got.genes, want.genes) << "seed " << seed;
      EXPECT_EQ(got.f, want.f) << "seed " << seed;  // bit-exact, not NEAR
      EXPECT_EQ(got.tp, want.tp);
      EXPECT_EQ(got.tn, want.tn);
      EXPECT_EQ(got.tumor_remaining_before, want.tumor_remaining_before);
      EXPECT_EQ(got.tumor_remaining_after, want.tumor_remaining_after);
    }
  }
}

TEST(CheckpointProperty, EveryTruncationIsRejected) {
  std::stringstream buffer;
  write_checkpoint(buffer, random_state(99));
  const std::string full = buffer.str();
  ASSERT_GT(full.size(), 10u);
  for (std::size_t length = 0; length < full.size(); ++length) {
    std::stringstream cut(full.substr(0, length));
    EXPECT_THROW(read_checkpoint(cut), std::runtime_error) << "prefix length " << length;
  }
}

TEST(CheckpointProperty, SingleCharacterCorruptionIsRejected) {
  std::stringstream buffer;
  write_checkpoint(buffer, random_state(100));
  const std::string full = buffer.str();
  Rng rng(0xc0ffee);
  for (int trial = 0; trial < 200; ++trial) {
    std::string corrupted = full;
    const std::size_t at = static_cast<std::size_t>(rng.uniform(full.size()));
    char replacement = static_cast<char>('0' + rng.uniform(75));  // printable
    if (replacement == corrupted[at]) replacement = replacement == 'x' ? 'y' : 'x';
    corrupted[at] = replacement;
    std::stringstream stream(corrupted);
    EXPECT_THROW(read_checkpoint(stream), std::runtime_error)
        << "flip at offset " << at << " to '" << replacement << "'";
  }
}

TEST(CheckpointProperty, ForeignVersionsAreRejectedNotMisparsed) {
  std::stringstream buffer;
  write_checkpoint(buffer, random_state(101));
  const std::string full = buffer.str();
  for (const std::string version : {"v1", "v3", "v22"}) {
    std::string other = full;
    other.replace(other.find("v2"), 2, version);
    std::stringstream stream(other);
    try {
      read_checkpoint(stream);
      FAIL() << "accepted version " << version;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("version"), std::string::npos)
          << "unhelpful error for " << version << ": " << e.what();
    }
  }
}

TEST(Checkpoint, FileRoundTrip) {
  const Dataset data = checkpoint_dataset();
  EngineConfig config;
  config.hits = 3;
  Engine session(data.tumor, data.normal, config, make_kernel_evaluator(3));
  session.step(1);
  const CheckpointState state = session.checkpoint();
  const std::string path = testing::TempDir() + "/multihit_checkpoint_test.txt";
  save_checkpoint(path, state);
  const CheckpointState loaded = load_checkpoint(path);
  EXPECT_EQ(loaded.tumor, state.tumor);
  EXPECT_THROW(load_checkpoint("/nonexistent/chk.txt"), std::ios_base::failure);
}

}  // namespace
}  // namespace multihit
