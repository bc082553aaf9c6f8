// Geolocation database for the simulated Internet.
//
// Cities anchor everything geographic: router placement, propagation
// delay (haversine distance at ~2/3 c), server locations (Fig. 7 maps) and
// the per-city timezones used to convert congestion events to local time
// (Fig. 6). The built-in catalog covers the U.S. metros where the three
// speed-test fleets deploy, the GCP region cities, European metros for
// europe-west1, and the Indian/Australian metros that appear in the
// paper's differential experiment.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/sim_time.hpp"
#include "util/units.hpp"

namespace clasp {

// Stable identifier into the geo database.
struct city_id {
  std::uint32_t value{0};

  constexpr auto operator<=>(const city_id&) const = default;
};

struct city_info {
  city_id id;
  std::string name;
  std::string country;  // ISO alpha-2
  double latitude{0.0};
  double longitude{0.0};
  timezone_offset tz{};
  // Relative metro weight used when spreading servers/eyeballs (larger
  // metros host more test servers).
  double population_weight{1.0};
};

// Immutable city catalog. Built once from the built-in list.
class geo_database {
 public:
  // The standard catalog used by the substrate.
  static geo_database builtin();

  const city_info& city(city_id id) const;
  // Lookup by name; throws not_found_error when absent.
  const city_info& city_by_name(const std::string& name) const;
  bool has_city(const std::string& name) const;

  const std::vector<city_info>& cities() const { return cities_; }
  // All cities in a country.
  std::vector<city_id> cities_in_country(const std::string& country) const;

  std::size_t size() const { return cities_.size(); }

  // haversine_km(city(a), city(b)), read from a table that builtin()
  // fills once (N x N doubles, row a, column b). Callers keep
  // haversine_km's argument order: its bitwise symmetry rests on libm's
  // sin and cos, which no standard promises.
  double distance_km(city_id a, city_id b) const {
    if (a.value >= cities_.size() || b.value >= cities_.size()) {
      throw_unknown_pair(a, b);
    }
    return distance_km_[a.value * cities_.size() + b.value];
  }

 private:
  [[noreturn]] static void throw_unknown_pair(city_id a, city_id b);

  std::vector<city_info> cities_;
  std::vector<double> distance_km_;
};

// Great-circle distance in kilometers.
double haversine_km(const city_info& a, const city_info& b);

// One-way propagation delay between two cities in milliseconds, assuming
// fiber at ~2/3 the speed of light plus a path-stretch factor of 1.3 for
// non-great-circle fiber routes.
millis propagation_delay(const city_info& a, const city_info& b);

}  // namespace clasp

template <>
struct std::hash<clasp::city_id> {
  std::size_t operator()(const clasp::city_id& c) const noexcept {
    return std::hash<std::uint32_t>{}(c.value);
  }
};
