#include "data/geo.hpp"

#include <cmath>
#include <numbers>
#include <unordered_map>

#include "util/error.hpp"

namespace clasp {

namespace {

struct raw_city {
  const char* name;
  const char* country;
  double lat;
  double lon;
  int utc_offset;
  double weight;
};

// Fixed (standard-time) UTC offsets; see sim_time.hpp for the DST note.
// Weights approximate metro size for server/eyeball placement.
constexpr raw_city kCities[] = {
    // --- GCP region host cities ---
    {"The Dalles, OR", "US", 45.60, -121.18, -8, 0.2},
    {"Los Angeles, CA", "US", 34.05, -118.24, -8, 9.0},
    {"Las Vegas, NV", "US", 36.17, -115.14, -8, 2.2},
    {"Moncks Corner, SC", "US", 33.20, -80.01, -5, 0.2},
    {"Ashburn, VA", "US", 39.04, -77.49, -5, 1.5},
    {"Council Bluffs, IA", "US", 41.26, -95.86, -6, 0.3},
    {"St. Ghislain", "BE", 50.45, 3.82, 1, 0.2},
    // --- U.S. metros (speed-test server and eyeball placement) ---
    {"Seattle, WA", "US", 47.61, -122.33, -8, 4.0},
    {"Portland, OR", "US", 45.52, -122.68, -8, 2.5},
    {"San Francisco, CA", "US", 37.77, -122.42, -8, 4.7},
    {"San Jose, CA", "US", 37.34, -121.89, -8, 2.0},
    {"Sacramento, CA", "US", 38.58, -121.49, -8, 2.3},
    {"Fresno, CA", "US", 36.74, -119.78, -8, 1.0},
    {"San Diego, CA", "US", 32.72, -117.16, -8, 3.3},
    {"Phoenix, AZ", "US", 33.45, -112.07, -7, 4.9},
    {"Tucson, AZ", "US", 32.22, -110.97, -7, 1.0},
    {"Salt Lake City, UT", "US", 40.76, -111.89, -7, 1.2},
    {"Denver, CO", "US", 39.74, -104.99, -7, 2.9},
    {"Albuquerque, NM", "US", 35.08, -106.65, -7, 0.9},
    {"Boise, ID", "US", 43.62, -116.20, -7, 0.7},
    {"Reno, NV", "US", 39.53, -119.81, -8, 0.5},
    {"El Paso, TX", "US", 31.76, -106.49, -7, 0.8},
    {"Dallas, TX", "US", 32.78, -96.80, -6, 7.6},
    {"Houston, TX", "US", 29.76, -95.37, -6, 7.1},
    {"Austin, TX", "US", 30.27, -97.74, -6, 2.3},
    {"San Antonio, TX", "US", 29.42, -98.49, -6, 2.6},
    {"Oklahoma City, OK", "US", 35.47, -97.52, -6, 1.4},
    {"Kansas City, MO", "US", 39.10, -94.58, -6, 2.2},
    {"Omaha, NE", "US", 41.26, -95.93, -6, 0.9},
    {"Minneapolis, MN", "US", 44.98, -93.27, -6, 3.7},
    {"St. Louis, MO", "US", 38.63, -90.20, -6, 2.8},
    {"Chicago, IL", "US", 41.88, -87.63, -6, 9.5},
    {"Milwaukee, WI", "US", 43.04, -87.91, -6, 1.6},
    {"Des Moines, IA", "US", 41.59, -93.62, -6, 0.7},
    {"Memphis, TN", "US", 35.15, -90.05, -6, 1.3},
    {"New Orleans, LA", "US", 29.95, -90.07, -6, 1.3},
    {"Nashville, TN", "US", 36.16, -86.78, -6, 1.9},
    {"Indianapolis, IN", "US", 39.77, -86.16, -5, 2.1},
    {"Detroit, MI", "US", 42.33, -83.05, -5, 4.3},
    {"Columbus, OH", "US", 39.96, -83.00, -5, 2.1},
    {"Cleveland, OH", "US", 41.50, -81.69, -5, 2.1},
    {"Cincinnati, OH", "US", 39.10, -84.51, -5, 2.2},
    {"Louisville, KY", "US", 38.25, -85.76, -5, 1.3},
    {"Atlanta, GA", "US", 33.75, -84.39, -5, 6.0},
    {"Charlotte, NC", "US", 35.23, -80.84, -5, 2.6},
    {"Raleigh, NC", "US", 35.78, -78.64, -5, 1.4},
    {"Charleston, SC", "US", 32.78, -79.93, -5, 0.8},
    {"Jacksonville, FL", "US", 30.33, -81.66, -5, 1.6},
    {"Orlando, FL", "US", 28.54, -81.38, -5, 2.6},
    {"Tampa, FL", "US", 27.95, -82.46, -5, 3.2},
    {"Miami, FL", "US", 25.76, -80.19, -5, 6.1},
    {"Washington, DC", "US", 38.91, -77.04, -5, 6.3},
    {"Baltimore, MD", "US", 39.29, -76.61, -5, 2.8},
    {"Richmond, VA", "US", 37.54, -77.44, -5, 1.3},
    {"Philadelphia, PA", "US", 39.95, -75.17, -5, 6.1},
    {"Pittsburgh, PA", "US", 40.44, -79.99, -5, 2.3},
    {"New York, NY", "US", 40.71, -74.01, -5, 19.2},
    {"Newark, NJ", "US", 40.74, -74.17, -5, 2.0},
    {"Boston, MA", "US", 42.36, -71.06, -5, 4.9},
    {"Hartford, CT", "US", 41.76, -72.67, -5, 1.2},
    {"Providence, RI", "US", 41.82, -71.41, -5, 1.6},
    {"Buffalo, NY", "US", 42.89, -78.88, -5, 1.1},
    {"Albany, NY", "US", 42.65, -73.75, -5, 0.9},
    {"Honolulu, HI", "US", 21.31, -157.86, -10, 1.0},
    {"Anchorage, AK", "US", 61.22, -149.90, -9, 0.4},
    {"Billings, MT", "US", 45.78, -108.50, -7, 0.2},
    {"Fargo, ND", "US", 46.88, -96.79, -6, 0.2},
    {"Sioux Falls, SD", "US", 43.55, -96.73, -6, 0.3},
    {"Little Rock, AR", "US", 34.75, -92.29, -6, 0.7},
    {"Birmingham, AL", "US", 33.52, -86.80, -6, 1.1},
    {"Jackson, MS", "US", 32.30, -90.18, -6, 0.6},
    {"Tulsa, OK", "US", 36.15, -95.99, -6, 1.0},
    {"Wichita, KS", "US", 37.69, -97.34, -6, 0.6},
    {"Spokane, WA", "US", 47.66, -117.43, -8, 0.6},
    {"Eugene, OR", "US", 44.05, -123.09, -8, 0.4},
    {"Bakersfield, CA", "US", 35.37, -119.02, -8, 0.9},
    {"Grass Valley, CA", "US", 39.22, -121.06, -8, 0.2},
    {"Santa Barbara, CA", "US", 34.42, -119.70, -8, 0.5},
    {"Colorado Springs, CO", "US", 38.83, -104.82, -7, 0.7},
    {"Savannah, GA", "US", 32.08, -81.09, -5, 0.4},
    {"Knoxville, TN", "US", 35.96, -83.92, -5, 0.9},
    {"Grand Rapids, MI", "US", 42.96, -85.66, -5, 1.1},
    {"Madison, WI", "US", 43.07, -89.40, -6, 0.7},
    {"Rochester, NY", "US", 43.16, -77.61, -5, 1.1},
    {"Syracuse, NY", "US", 43.05, -76.15, -5, 0.7},
    {"Norfolk, VA", "US", 36.85, -76.29, -5, 1.2},
    {"Greensboro, NC", "US", 36.07, -79.79, -5, 0.8},
    {"Columbia, SC", "US", 34.00, -81.03, -5, 0.8},
    {"Tallahassee, FL", "US", 30.44, -84.28, -5, 0.4},
    {"Mobile, AL", "US", 30.69, -88.04, -6, 0.4},
    {"Shreveport, LA", "US", 32.53, -93.75, -6, 0.4},
    {"Lubbock, TX", "US", 33.58, -101.86, -6, 0.3},
    {"Corpus Christi, TX", "US", 27.80, -97.40, -6, 0.4},
    {"McAllen, TX", "US", 26.20, -98.23, -6, 0.9},
    {"Fort Wayne, IN", "US", 41.08, -85.14, -5, 0.4},
    {"Toledo, OH", "US", 41.65, -83.54, -5, 0.6},
    {"Dayton, OH", "US", 39.76, -84.19, -5, 0.8},
    {"Lexington, KY", "US", 38.04, -84.50, -5, 0.5},
    {"Chattanooga, TN", "US", 35.05, -85.31, -5, 0.5},
    {"Augusta, GA", "US", 33.47, -81.97, -5, 0.6},
    {"Fayetteville, AR", "US", 36.06, -94.16, -6, 0.5},
    {"Springfield, MO", "US", 37.21, -93.29, -6, 0.5},
    {"Cedar Rapids, IA", "US", 41.98, -91.67, -6, 0.3},
    {"Green Bay, WI", "US", 44.51, -88.01, -6, 0.3},
    {"Duluth, MN", "US", 46.79, -92.10, -6, 0.3},
    {"Boulder, CO", "US", 40.01, -105.27, -7, 0.3},
    {"Provo, UT", "US", 40.23, -111.66, -7, 0.6},
    {"Missoula, MT", "US", 46.87, -113.99, -7, 0.2},
    {"Bend, OR", "US", 44.06, -121.31, -8, 0.2},
    {"Santa Rosa, CA", "US", 38.44, -122.71, -8, 0.5},
    {"Stockton, CA", "US", 37.96, -121.29, -8, 0.8},
    {"Riverside, CA", "US", 33.95, -117.40, -8, 4.6},
    {"Irvine, CA", "US", 33.68, -117.83, -8, 3.2},
    // --- European metros (europe-west1 coverage) ---
    {"London", "GB", 51.51, -0.13, 0, 14.0},
    {"Paris", "FR", 48.86, 2.35, 1, 12.0},
    {"Amsterdam", "NL", 52.37, 4.90, 1, 2.5},
    {"Brussels", "BE", 50.85, 4.35, 1, 2.1},
    {"Frankfurt", "DE", 50.11, 8.68, 1, 2.3},
    {"Berlin", "DE", 52.52, 13.41, 1, 3.6},
    {"Munich", "DE", 48.14, 11.58, 1, 1.5},
    {"Madrid", "ES", 40.42, -3.70, 1, 6.6},
    {"Barcelona", "ES", 41.39, 2.17, 1, 5.6},
    {"Milan", "IT", 45.46, 9.19, 1, 3.2},
    {"Rome", "IT", 41.90, 12.50, 1, 4.3},
    {"Zurich", "CH", 47.38, 8.54, 1, 1.4},
    {"Vienna", "AT", 48.21, 16.37, 1, 1.9},
    {"Warsaw", "PL", 52.23, 21.01, 1, 1.8},
    {"Prague", "CZ", 50.08, 14.44, 1, 1.3},
    {"Stockholm", "SE", 59.33, 18.07, 1, 1.6},
    {"Copenhagen", "DK", 55.68, 12.57, 1, 1.3},
    {"Oslo", "NO", 59.91, 10.75, 1, 1.0},
    {"Helsinki", "FI", 60.17, 24.94, 2, 1.2},
    {"Dublin", "IE", 53.35, -6.26, 0, 1.2},
    {"Lisbon", "PT", 38.72, -9.14, 0, 2.9},
    {"Athens", "GR", 37.98, 23.73, 2, 3.2},
    {"Bucharest", "RO", 44.43, 26.10, 2, 1.8},
    {"Budapest", "HU", 47.50, 19.04, 1, 1.8},
    {"Kyiv", "UA", 50.45, 30.52, 2, 3.0},
    {"Istanbul", "TR", 41.01, 28.98, 3, 15.5},
    {"Moscow", "RU", 55.76, 37.62, 3, 12.5},
    // --- Differential-experiment destinations (India / Australia / etc.) ---
    {"Mumbai", "IN", 19.08, 72.88, 5, 20.4},
    {"Delhi", "IN", 28.70, 77.10, 5, 31.0},
    {"Bangalore", "IN", 12.97, 77.59, 5, 12.3},
    {"Chennai", "IN", 13.08, 80.27, 5, 10.9},
    {"Hyderabad", "IN", 17.39, 78.49, 5, 9.7},
    {"Sydney", "AU", -33.87, 151.21, 10, 5.3},
    {"Melbourne", "AU", -37.81, 144.96, 10, 5.1},
    {"Brisbane", "AU", -27.47, 153.03, 10, 2.5},
    {"Perth", "AU", -31.95, 115.86, 8, 2.1},
    {"Auckland", "NZ", -36.85, 174.76, 12, 1.7},
    {"Singapore", "SG", 1.35, 103.82, 8, 5.7},
    {"Tokyo", "JP", 35.68, 139.69, 9, 37.4},
    {"Seoul", "KR", 37.57, 126.98, 9, 9.8},
    {"Hong Kong", "HK", 22.32, 114.17, 8, 7.5},
    {"Sao Paulo", "BR", -23.55, -46.63, -3, 22.0},
    {"Buenos Aires", "AR", -34.60, -58.38, -3, 15.2},
    {"Mexico City", "MX", 19.43, -99.13, -6, 21.8},
    {"Toronto", "CA", 43.65, -79.38, -5, 6.3},
    {"Vancouver", "CA", 49.28, -123.12, -8, 2.6},
    {"Montreal", "CA", 45.50, -73.57, -5, 4.3},
    {"Johannesburg", "ZA", -26.20, 28.05, 2, 5.9},
};

}  // namespace

geo_database geo_database::builtin() {
  geo_database db;
  db.cities_.reserve(std::size(kCities));
  std::uint32_t next_id = 0;
  for (const auto& raw : kCities) {
    city_info info;
    info.id = city_id{next_id++};
    info.name = raw.name;
    info.country = raw.country;
    info.latitude = raw.lat;
    info.longitude = raw.lon;
    info.tz = timezone_offset{raw.utc_offset};
    info.population_weight = raw.weight;
    db.cities_.push_back(std::move(info));
  }
  db.distance_km_.reserve(db.cities_.size() * db.cities_.size());
  for (const city_info& a : db.cities_) {
    for (const city_info& b : db.cities_) {
      db.distance_km_.push_back(haversine_km(a, b));
    }
  }
  return db;
}

void geo_database::throw_unknown_pair(city_id a, city_id b) {
  throw not_found_error("geo_database: unknown city id in pair (" +
                        std::to_string(a.value) + ", " +
                        std::to_string(b.value) + ")");
}

const city_info& geo_database::city(city_id id) const {
  if (id.value >= cities_.size()) {
    throw not_found_error("geo_database: unknown city id " +
                          std::to_string(id.value));
  }
  return cities_[id.value];
}

const city_info& geo_database::city_by_name(const std::string& name) const {
  for (const auto& c : cities_) {
    if (c.name == name) return c;
  }
  throw not_found_error("geo_database: unknown city " + name);
}

bool geo_database::has_city(const std::string& name) const {
  for (const auto& c : cities_) {
    if (c.name == name) return true;
  }
  return false;
}

std::vector<city_id> geo_database::cities_in_country(
    const std::string& country) const {
  std::vector<city_id> out;
  for (const auto& c : cities_) {
    if (c.country == country) out.push_back(c.id);
  }
  return out;
}

double haversine_km(const city_info& a, const city_info& b) {
  constexpr double kEarthRadiusKm = 6371.0;
  const double to_rad = std::numbers::pi / 180.0;
  const double dlat = (b.latitude - a.latitude) * to_rad;
  const double dlon = (b.longitude - a.longitude) * to_rad;
  const double s = std::sin(dlat / 2) * std::sin(dlat / 2) +
                   std::cos(a.latitude * to_rad) * std::cos(b.latitude * to_rad) *
                       std::sin(dlon / 2) * std::sin(dlon / 2);
  return 2.0 * kEarthRadiusKm * std::asin(std::sqrt(s));
}

millis propagation_delay(const city_info& a, const city_info& b) {
  // Light in fiber: ~200 km/ms; stretch 1.3 for real fiber routes.
  const double km = haversine_km(a, b) * 1.3;
  return millis{km / 200.0};
}

}  // namespace clasp
