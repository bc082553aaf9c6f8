#include "data/geo.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace clasp {
namespace {

TEST(GeoTest, BuiltinHasExpectedCities) {
  const geo_database db = geo_database::builtin();
  EXPECT_GT(db.size(), 100u);
  // Every GCP region host city must exist.
  for (const char* name :
       {"The Dalles, OR", "Los Angeles, CA", "Las Vegas, NV",
        "Moncks Corner, SC", "Ashburn, VA", "Council Bluffs, IA",
        "St. Ghislain"}) {
    EXPECT_TRUE(db.has_city(name)) << name;
  }
  // The paper's differential destinations.
  for (const char* name : {"Mumbai", "Sydney", "Brussels"}) {
    EXPECT_TRUE(db.has_city(name)) << name;
  }
}

TEST(GeoTest, CityLookupByIdAndName) {
  const geo_database db = geo_database::builtin();
  const city_info& la = db.city_by_name("Los Angeles, CA");
  EXPECT_EQ(db.city(la.id).name, "Los Angeles, CA");
  EXPECT_EQ(la.country, "US");
  EXPECT_EQ(la.tz.hours_east_of_utc, -8);
}

TEST(GeoTest, UnknownLookupsThrow) {
  const geo_database db = geo_database::builtin();
  EXPECT_THROW(db.city_by_name("Atlantis"), not_found_error);
  EXPECT_THROW(db.city(city_id{999999}), not_found_error);
  EXPECT_FALSE(db.has_city("Atlantis"));
}

TEST(GeoTest, CountryFilter) {
  const geo_database db = geo_database::builtin();
  const auto us = db.cities_in_country("US");
  const auto in = db.cities_in_country("IN");
  EXPECT_GT(us.size(), 50u);
  EXPECT_GE(in.size(), 5u);
  for (const city_id c : in) EXPECT_EQ(db.city(c).country, "IN");
}

TEST(GeoTest, IdsAreDense) {
  const geo_database db = geo_database::builtin();
  for (std::uint32_t i = 0; i < db.size(); ++i) {
    EXPECT_EQ(db.city(city_id{i}).id.value, i);
  }
}

TEST(GeoTest, HaversineKnownDistance) {
  const geo_database db = geo_database::builtin();
  const double d = haversine_km(db.city_by_name("Los Angeles, CA"),
                                db.city_by_name("New York, NY"));
  EXPECT_NEAR(d, 3940.0, 60.0);  // great-circle LA-NYC
}

TEST(GeoTest, HaversineSymmetricAndZero) {
  const geo_database db = geo_database::builtin();
  const city_info& a = db.city_by_name("Chicago, IL");
  const city_info& b = db.city_by_name("Miami, FL");
  EXPECT_DOUBLE_EQ(haversine_km(a, b), haversine_km(b, a));
  EXPECT_DOUBLE_EQ(haversine_km(a, a), 0.0);
}

TEST(GeoTest, DistanceTableMatchesHaversineForEveryOrderedPair) {
  const geo_database db = geo_database::builtin();
  for (const city_info& a : db.cities()) {
    for (const city_info& b : db.cities()) {
      ASSERT_EQ(db.distance_km(a.id, b.id), haversine_km(a, b))
          << a.name << " -> " << b.name;
    }
  }
  const city_id past_end{static_cast<std::uint32_t>(db.size())};
  EXPECT_THROW(db.distance_km(past_end, city_id{0}), not_found_error);
  EXPECT_THROW(db.distance_km(city_id{0}, past_end), not_found_error);
}

TEST(GeoTest, PropagationDelayScalesWithDistance) {
  const geo_database db = geo_database::builtin();
  const millis near = propagation_delay(db.city_by_name("San Jose, CA"),
                                        db.city_by_name("San Francisco, CA"));
  const millis far = propagation_delay(db.city_by_name("San Jose, CA"),
                                       db.city_by_name("New York, NY"));
  EXPECT_LT(near.value, far.value);
  // Coast-to-coast one-way fiber delay should be ~20-35 ms.
  EXPECT_GT(far.value, 15.0);
  EXPECT_LT(far.value, 40.0);
}

TEST(GeoTest, PopulationWeightsPositive) {
  const geo_database db = geo_database::builtin();
  for (const city_info& c : db.cities()) {
    EXPECT_GT(c.population_weight, 0.0) << c.name;
  }
}

TEST(GeoTest, TimezonesPlausible) {
  const geo_database db = geo_database::builtin();
  for (const city_info& c : db.cities()) {
    EXPECT_GE(c.tz.hours_east_of_utc, -12) << c.name;
    EXPECT_LE(c.tz.hours_east_of_utc, 14) << c.name;
  }
  EXPECT_EQ(db.city_by_name("Mumbai").tz.hours_east_of_utc, 5);
  EXPECT_EQ(db.city_by_name("Sydney").tz.hours_east_of_utc, 10);
}

}  // namespace
}  // namespace clasp
