// Copyright 2026 The kwsc Authors. Licensed under the Apache License 2.0.
//
// End-to-end integration tests: the hotel scenario of the paper's
// introduction, run against every index and both baselines simultaneously;
// plus cross-index agreement on a shared random dataset.

#include <gtest/gtest.h>

#include <algorithm>

#include "baseline/keywords_only.h"
#include "baseline/structured_only.h"
#include "common/random.h"
#include "core/lc_kw.h"
#include "core/nn_linf.h"
#include "core/orp_kw.h"
#include "core/srp_kw.h"
#include "test_util.h"
#include "workload/generator.h"

namespace kwsc {
namespace {

using testing::Sorted;

// Keywords of the paper's running example.
constexpr KeywordId kPool = 0;
constexpr KeywordId kFreeParking = 1;
constexpr KeywordId kPetFriendly = 2;
constexpr KeywordId kSpa = 3;
constexpr KeywordId kBeach = 4;

// Hotel(price, rating, Doc) as in Section 1. Points are (price, rating).
struct HotelData {
  Corpus corpus;
  std::vector<Point<2>> points;
};

HotelData MakeHotels() {
  Rng rng(20230618);  // The conference date, for flavor.
  std::vector<Document> docs;
  std::vector<Point<2>> points;
  for (int i = 0; i < 500; ++i) {
    std::vector<KeywordId> tags;
    // Amenities with decreasing popularity.
    if (rng.NextBool(0.6)) tags.push_back(kPool);
    if (rng.NextBool(0.4)) tags.push_back(kFreeParking);
    if (rng.NextBool(0.25)) tags.push_back(kPetFriendly);
    if (rng.NextBool(0.15)) tags.push_back(kSpa);
    if (rng.NextBool(0.1)) tags.push_back(kBeach);
    tags.push_back(static_cast<KeywordId>(5 + rng.NextBounded(40)));  // Brand.
    docs.emplace_back(std::move(tags));
    const double price = rng.UniformDouble(40, 400);
    const double rating = rng.UniformDouble(1, 10);
    points.push_back({{price, rating}});
  }
  return {Corpus(docs), std::move(points)};
}

class HotelScenario : public ::testing::Test {
 protected:
  void SetUp() override { data_ = MakeHotels(); }
  HotelData data_;
};

TEST_F(HotelScenario, ConditionC1RangeQuery) {
  // C1: price in [100, 200] and rating >= 8, with keywords pool +
  // free-parking + pet-friendly (k = 3).
  FrameworkOptions opt;
  opt.k = 3;
  OrpKwIndex<2> index(data_.points, &data_.corpus, opt);
  StructuredOnlyBaseline<2> structured(data_.points, &data_.corpus);
  KeywordsOnlyBaseline<2> keywords(data_.points, &data_.corpus);

  Box<2> c1{{{100, 8}}, {{200, 10}}};
  std::vector<KeywordId> kws = {kPool, kFreeParking, kPetFriendly};

  auto expected = testing::BruteBox(
      std::span<const Point<2>>(data_.points), data_.corpus, c1, kws);
  EXPECT_EQ(Sorted(index.Query(c1, kws)), expected);
  EXPECT_EQ(Sorted(structured.QueryBox(c1, kws)), expected);
  EXPECT_EQ(Sorted(keywords.QueryBox(c1, kws)), expected);
}

TEST_F(HotelScenario, ConditionC2LinearConstraint) {
  // C2: c1 * price + c2 * (10 - rating) <= c3, i.e.
  // c1 * price - c2 * rating <= c3 - 10 * c2. One halfspace, k = 2.
  FrameworkOptions opt;
  opt.k = 2;
  LcKwIndex<2> index(data_.points, &data_.corpus, opt);
  StructuredOnlyBaseline<2> structured(data_.points, &data_.corpus);

  const double c1 = 1.0, c2 = 40.0, c3 = 260.0;
  ConvexQuery<2> q;
  q.constraints.push_back({{{c1, -c2}}, c3 - 10 * c2});
  std::vector<KeywordId> kws = {kPool, kFreeParking};

  auto expected = testing::BruteConvex(
      std::span<const Point<2>>(data_.points), data_.corpus, q, kws);
  EXPECT_EQ(Sorted(index.Query(q, kws)), expected);
  EXPECT_EQ(Sorted(structured.QueryConvex(q, kws)), expected);
  EXPECT_FALSE(expected.empty());  // The scenario should be non-trivial.
}

TEST_F(HotelScenario, NearestCheapHighRatedHotel) {
  // "Hotel nearest to (price=120, rating=9) in (price, rating) space with
  // pool and spa" — the similarity-search reading of Corollary 4.
  FrameworkOptions opt;
  opt.k = 2;
  LinfNnIndex<2> index(data_.points, &data_.corpus, opt);
  StructuredOnlyBaseline<2> structured(data_.points, &data_.corpus);
  std::vector<KeywordId> kws = {kPool, kSpa};
  Point<2> q{{120, 9}};
  auto got = index.Query(q, 3, kws);
  auto expected = structured.QueryNearestLinf(q, 3, kws);
  ASSERT_EQ(got.size(), expected.size());
  auto dist = [](const Point<2>& a, const Point<2>& b) {
    return LInfDistance(a, b);
  };
  EXPECT_EQ(testing::DistanceProfile(std::span<const Point<2>>(data_.points),
                                     q, got, dist),
            testing::DistanceProfile(std::span<const Point<2>>(data_.points),
                                     q, expected, dist));
}

TEST_F(HotelScenario, EmptyAnswerExaminesFewObjects) {
  // Hotels with beach + spa + pet-friendly in a deserted price range: the
  // answer is (nearly) empty and the transformed index must stay well below
  // reading the data in whole — the failure mode of both naive approaches
  // the introduction calls out.
  FrameworkOptions opt;
  opt.k = 3;
  OrpKwIndex<2> index(data_.points, &data_.corpus, opt);
  KeywordsOnlyBaseline<2> keywords(data_.points, &data_.corpus);
  Box<2> empty_range{{{395, 9.8}}, {{400, 10}}};
  std::vector<KeywordId> kws = {kPetFriendly, kSpa, kBeach};
  QueryStats stats;
  auto got = index.Query(empty_range, kws, &stats);
  auto got_kw = keywords.QueryBox(empty_range, kws);
  EXPECT_EQ(Sorted(got), Sorted(got_kw));
  // Sublinear work: far below N (= total document weight, ~1500 here).
  EXPECT_LT(stats.ObjectsExamined(), data_.corpus.total_weight() / 4);
}

TEST(CrossIndexAgreement, AllIndexesAnswerTheSameBoxQuery) {
  // One shared dataset; the kd index, the LC index (via the 2d-halfspace
  // translation), and both baselines must return identical sets.
  Rng rng(555);
  CorpusSpec spec;
  spec.num_objects = 600;
  spec.vocab_size = 50;
  Corpus corpus = GenerateCorpus(spec, &rng);
  auto pts = GeneratePoints<2>(600, PointDistribution::kClustered, &rng);
  FrameworkOptions opt;
  opt.k = 2;
  OrpKwIndex<2> orp(pts, &corpus, opt);
  LcKwIndex<2> lc(pts, &corpus, opt);
  SpKwBoxIndex<2> sp_box(pts, &corpus, opt);
  StructuredOnlyBaseline<2> structured(pts, &corpus);
  KeywordsOnlyBaseline<2> keywords(pts, &corpus);

  for (int trial = 0; trial < 10; ++trial) {
    auto box = GenerateBoxQuery(std::span<const Point<2>>(pts),
                                rng.UniformDouble(0.02, 0.4), &rng);
    auto kws = PickQueryKeywords(corpus, 2, KeywordPick::kCooccurring, &rng);
    const auto expected = Sorted(orp.Query(box, kws));
    EXPECT_EQ(Sorted(lc.Query(BoxToConvexQuery(box), kws)), expected);
    EXPECT_EQ(Sorted(sp_box.Query(BoxToConvexQuery(box), kws)), expected);
    EXPECT_EQ(Sorted(structured.QueryBox(box, kws)), expected);
    EXPECT_EQ(Sorted(keywords.QueryBox(box, kws)), expected);
  }
}

TEST(CrossIndexAgreement, SphericalAndLinearAgreeOnBalls) {
  // A ball query through SRP-KW must equal the brute ball filter, and its
  // lifted halfspace run through LC-KW in 3-D must agree as well.
  Rng rng(556);
  CorpusSpec spec;
  spec.num_objects = 400;
  spec.vocab_size = 40;
  Corpus corpus = GenerateCorpus(spec, &rng);
  auto pts = GeneratePoints<2>(400, PointDistribution::kUniform, &rng);
  FrameworkOptions opt;
  opt.k = 2;
  SrpKwIndex<2> srp(pts, &corpus, opt);

  // Lifted 3-D dataset fed to the generic LC index.
  std::vector<Point<3>> lifted(pts.size());
  for (size_t i = 0; i < pts.size(); ++i) lifted[i] = LiftPoint(pts[i]);
  LcKwIndex<3> lc(lifted, &corpus, opt);

  for (int trial = 0; trial < 8; ++trial) {
    auto [center, radius_sq] =
        GenerateBallQuery(std::span<const Point<2>>(pts), 0.15, &rng);
    auto kws = PickQueryKeywords(corpus, 2, KeywordPick::kCooccurring, &rng);
    ConvexQuery<3> lifted_q;
    lifted_q.constraints.push_back(BallToLiftedHalfspace(center, radius_sq));
    const auto expected = testing::BruteBall(
        std::span<const Point<2>>(pts), corpus, center, radius_sq, kws);
    EXPECT_EQ(Sorted(srp.Query(center, radius_sq, kws)), expected);
    EXPECT_EQ(Sorted(lc.Query(lifted_q, kws)), expected);
  }
}

}  // namespace
}  // namespace kwsc
