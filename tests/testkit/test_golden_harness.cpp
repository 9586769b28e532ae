// Golden-signature harness round trip: regen writes a parseable file, a
// fresh db verifies against it, bit drift is caught, and the tolerance
// fallback accepts sub-tolerance drift when strict mode is off.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>

#include "rcr/testkit/testkit.hpp"

namespace tk = rcr::testkit;
using rcr::sig::CVec;

namespace {

class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    if (old != nullptr) saved_ = old;
    had_ = old != nullptr;
    ::setenv(name, value, 1);
  }
  ~ScopedEnv() {
    if (had_)
      ::setenv(name_, saved_.c_str(), 1);
    else
      ::unsetenv(name_);
  }

 private:
  const char* name_;
  std::string saved_;
  bool had_ = false;
};

CVec sample_coefficients() {
  CVec v(16);
  for (std::size_t i = 0; i < v.size(); ++i)
    v[i] = {std::sin(0.37 * static_cast<double>(i)),
            std::cos(1.11 * static_cast<double>(i))};
  return v;
}

class GoldenHarnessTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "testkit_golden_harness.json";
    std::remove(path_.c_str());
  }
  void TearDown() override { std::remove(path_.c_str()); }
  std::string path_;
};

TEST_F(GoldenHarnessTest, SignatureHashIsStableAndBitSensitive) {
  const CVec v = sample_coefficients();
  const auto* raw = reinterpret_cast<const double*>(v.data());
  const std::uint64_t h1 = tk::signature_hash(raw, 2 * v.size());
  const std::uint64_t h2 = tk::signature_hash(raw, 2 * v.size());
  EXPECT_EQ(h1, h2);
  CVec perturbed = v;
  perturbed[7] = {std::nextafter(v[7].real(), 2.0), v[7].imag()};
  const std::uint64_t h3 = tk::signature_hash(
      reinterpret_cast<const double*>(perturbed.data()), 2 * perturbed.size());
  EXPECT_NE(h1, h3);  // a single-ulp change flips the hash
}

TEST_F(GoldenHarnessTest, RegenThenVerifyRoundTrips) {
  {
    ScopedEnv regen("RCR_REGEN_GOLDEN", "1");
    tk::GoldenDb db(path_);
    ASSERT_TRUE(db.regen_mode());
    EXPECT_EQ(db.check("fixture", sample_coefficients()), "");
    EXPECT_EQ(db.entry_count(), 1u);
  }
  // A fresh db (normal mode) reloads the committed entry and verifies.
  tk::GoldenDb db(path_);
  ASSERT_FALSE(db.regen_mode());
  ASSERT_EQ(db.entry_count(), 1u);
  EXPECT_EQ(db.check("fixture", sample_coefficients()), "");
}

TEST_F(GoldenHarnessTest, BitDriftIsCaughtInStrictMode) {
  {
    ScopedEnv regen("RCR_REGEN_GOLDEN", "1");
    tk::GoldenDb db(path_);
    EXPECT_EQ(db.check("fixture", sample_coefficients()), "");
  }
  CVec drifted = sample_coefficients();
  drifted[3] = {std::nextafter(drifted[3].real(), 10.0), drifted[3].imag()};
  // Strict whatever the environment says: suites that run with
  // RCR_GOLDEN_STRICT=0 must still see this test check strict mode.
  ScopedEnv strict("RCR_GOLDEN_STRICT", "1");
  tk::GoldenDb db(path_);
  const std::string diag = db.check("fixture", drifted);
  ASSERT_FALSE(diag.empty());
  EXPECT_NE(diag.find("signature"), std::string::npos);
}

TEST_F(GoldenHarnessTest, ToleranceFallbackAcceptsSubToleranceDrift) {
  {
    ScopedEnv regen("RCR_REGEN_GOLDEN", "1");
    tk::GoldenDb db(path_);
    EXPECT_EQ(db.check("fixture", sample_coefficients()), "");
  }
  CVec drifted = sample_coefficients();
  drifted[3] = {std::nextafter(drifted[3].real(), 10.0), drifted[3].imag()};
  ScopedEnv lenient("RCR_GOLDEN_STRICT", "0");
  tk::GoldenDb db(path_);
  EXPECT_EQ(db.check("fixture", drifted), "");
  // A gross change still fails the fallback.
  CVec wrong = sample_coefficients();
  wrong[0] = {wrong[0].real() + 1.0, wrong[0].imag()};
  EXPECT_NE(db.check("fixture", wrong), "");
}

TEST_F(GoldenHarnessTest, MissingEntryNamesTheRegenKnob) {
  tk::GoldenDb db(path_);
  const std::string diag = db.check("never-recorded", sample_coefficients());
  ASSERT_FALSE(diag.empty());
  EXPECT_NE(diag.find("RCR_REGEN_GOLDEN"), std::string::npos);
}

TEST_F(GoldenHarnessTest, CountChangeIsCaughtBeforeTheSignature) {
  {
    ScopedEnv regen("RCR_REGEN_GOLDEN", "1");
    tk::GoldenDb db(path_);
    EXPECT_EQ(db.check("fixture", sample_coefficients()), "");
  }
  CVec shorter = sample_coefficients();
  shorter.pop_back();
  tk::GoldenDb db(path_);
  const std::string diag = db.check("fixture", shorter);
  ASSERT_FALSE(diag.empty());
  EXPECT_NE(diag.find("count"), std::string::npos);
}

TEST_F(GoldenHarnessTest, GridChecksFoldShapeIntoTheSignature) {
  rcr::sig::TfGrid grid(4, 6);
  for (std::size_t m = 0; m < 4; ++m)
    for (std::size_t n = 0; n < 6; ++n)
      grid(m, n) = {static_cast<double>(m), static_cast<double>(n)};
  {
    ScopedEnv regen("RCR_REGEN_GOLDEN", "1");
    tk::GoldenDb db(path_);
    EXPECT_EQ(db.check("grid", grid), "");
  }
  tk::GoldenDb db(path_);
  EXPECT_EQ(db.check("grid", grid), "");
  // Same flattened data under a different shape must fail.
  rcr::sig::TfGrid reshaped(6, 4);
  reshaped.data() = grid.data();
  EXPECT_NE(db.check("grid", reshaped), "");
}

TEST_F(GoldenHarnessTest, SavedFileSurvivesAnEditorRoundTrip) {
  // Entries written with full precision reload to identical GoldenEntries.
  {
    ScopedEnv regen("RCR_REGEN_GOLDEN", "1");
    tk::GoldenDb db(path_);
    EXPECT_EQ(db.check("a", sample_coefficients()), "");
    CVec other = sample_coefficients();
    for (auto& z : other) z *= 3.0;
    EXPECT_EQ(db.check("b", other), "");
    EXPECT_EQ(db.entry_count(), 2u);
  }
  tk::GoldenDb reloaded(path_);
  EXPECT_EQ(reloaded.entry_count(), 2u);
  EXPECT_EQ(reloaded.check("a", sample_coefficients()), "");
}

}  // namespace
