#include "netsim/generator.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"

namespace clasp {

namespace {

// ---------------------------------------------------------------------------
// Constants: address plan
// ---------------------------------------------------------------------------

// Pool carved into per-AS /18 blocks.
const ipv4_prefix kAsBlockPool = ipv4_prefix::parse("16.0.0.0/5");
// Cloud host + infra space (the Google 35/8 analogue).
const ipv4_prefix kCloudPool = ipv4_prefix::parse("35.0.0.0/12");
// Interconnect space announced by the cloud; far-side interfaces of cloud
// peerings are addressed here, which is why naive prefix-to-AS mapping
// attributes them to the cloud and bdrmap-style inference is needed.
const ipv4_prefix kInterconnectPool = ipv4_prefix::parse("72.14.0.0/16");

constexpr std::uint32_t kCloudAsn = 15169;

// ---------------------------------------------------------------------------
// Cloud PoP cities (Google edge analogue)
// ---------------------------------------------------------------------------

const char* const kPopCityNames[] = {
    // US (region host cities are PoPs too)
    "The Dalles, OR", "Seattle, WA", "Portland, OR", "San Francisco, CA",
    "San Jose, CA", "Los Angeles, CA", "Las Vegas, NV", "Phoenix, AZ",
    "Salt Lake City, UT", "Denver, CO", "Dallas, TX", "Houston, TX",
    "Chicago, IL", "Kansas City, MO", "Council Bluffs, IA",
    "Minneapolis, MN", "Atlanta, GA", "Miami, FL", "Ashburn, VA",
    "New York, NY", "Boston, MA", "Charlotte, NC", "Moncks Corner, SC",
    // Europe
    "St. Ghislain", "London", "Paris", "Amsterdam", "Frankfurt", "Brussels",
    "Madrid", "Milan", "Stockholm", "Zurich", "Warsaw",
    // APAC + other
    "Tokyo", "Singapore", "Hong Kong", "Sydney", "Mumbai", "Chennai",
    "Seoul", "Sao Paulo", "Toronto",
};

// ---------------------------------------------------------------------------
// Named AS seed table (the paper's case-study networks and major carriers)
// ---------------------------------------------------------------------------

struct named_as_spec {
  const char* name;
  std::uint32_t number;
  as_role role;
  std::initializer_list<const char*> cities;
  bool peers_with_cloud;
  congestion_archetype archetype;
};

const named_as_spec kTier1Specs[] = {
    {"Cogent", 174, as_role::tier1, {}, true, congestion_archetype::evening_eyeball},
    {"Lumen", 3356, as_role::tier1, {}, true, congestion_archetype::none},
    {"AT&T", 7018, as_role::tier1, {}, true, congestion_archetype::none},
    {"Verizon", 701, as_role::tier1, {}, true, congestion_archetype::none},
    {"Zayo", 6461, as_role::tier1, {}, true, congestion_archetype::none},
    {"GTT", 3257, as_role::tier1, {}, true, congestion_archetype::none},
    {"Telia", 1299, as_role::tier1, {}, true, congestion_archetype::none},
    {"NTT", 2914, as_role::tier1, {}, true, congestion_archetype::none},
    {"Tata", 6453, as_role::tier1, {}, true, congestion_archetype::none},
    {"Sprint", 1239, as_role::tier1, {}, true, congestion_archetype::none},
    {"Hurricane Electric", 6939, as_role::tier1, {}, true, congestion_archetype::none},
    {"PCCW", 3491, as_role::tier1, {}, true, congestion_archetype::none},
};

const named_as_spec kNamedEyeballs[] = {
    // The paper's case studies.
    {"Cox", 22773, as_role::access_isp,
     {"San Diego, CA", "Las Vegas, NV", "Santa Barbara, CA", "Phoenix, AZ",
      "Tulsa, OK", "New Orleans, LA"},
     true, congestion_archetype::daytime_reverse},
    {"unWired Broadband", 33548, as_role::regional_isp,
     {"Fresno, CA"}, true, congestion_archetype::evening_eyeball},
    {"Suddenlink", 19108, as_role::access_isp,
     {"Lubbock, TX", "Shreveport, LA", "Tulsa, OK"},
     true, congestion_archetype::evening_eyeball},
    {"Smarterbroadband", 46276, as_role::regional_isp,
     {"Grass Valley, CA"}, true, congestion_archetype::all_day},
    {"Telstra", 1221, as_role::access_isp,
     {"Sydney", "Melbourne", "Brisbane", "Perth"},
     true, congestion_archetype::std_path_episodes},
    {"Vortex Netsol Private Limited", 136334, as_role::regional_isp,
     {"Mumbai", "Delhi"}, true, congestion_archetype::std_path_episodes},
    {"Joister Broadband", 45194, as_role::regional_isp,
     {"Mumbai"}, true, congestion_archetype::std_path_episodes},
    // Major carriers for realism of the server fleet.
    {"Comcast", 7922, as_role::access_isp,
     {"Philadelphia, PA", "Denver, CO", "Chicago, IL", "Seattle, WA",
      "Atlanta, GA", "Boston, MA"},
     true, congestion_archetype::none},
    {"Charter", 20115, as_role::access_isp,
     {"St. Louis, MO", "Los Angeles, CA", "Dallas, TX", "Charlotte, NC",
      "New York, NY"},
     true, congestion_archetype::none},
    {"CenturyLink", 209, as_role::access_isp,
     {"Denver, CO", "Seattle, WA", "Minneapolis, MN", "Phoenix, AZ"},
     true, congestion_archetype::evening_eyeball},
    {"Frontier", 5650, as_role::access_isp,
     {"Tampa, FL", "Dallas, TX", "Los Angeles, CA"},
     true, congestion_archetype::evening_eyeball},
    {"Windstream", 7029, as_role::access_isp,
     {"Little Rock, AR", "Atlanta, GA", "Lexington, KY"},
     true, congestion_archetype::evening_eyeball},
    {"Mediacom", 30036, as_role::access_isp,
     {"Des Moines, IA", "Cedar Rapids, IA"},
     true, congestion_archetype::evening_eyeball},
    {"Cable One", 11492, as_role::access_isp,
     {"Phoenix, AZ", "Boise, ID", "Fargo, ND"},
     true, congestion_archetype::none},
    {"Sonic", 46375, as_role::regional_isp,
     {"Santa Rosa, CA"}, true, congestion_archetype::none},
    {"Proximus", 5432, as_role::access_isp,
     {"Brussels"}, true, congestion_archetype::none},
    {"Telenet", 6848, as_role::access_isp,
     {"Brussels"}, true, congestion_archetype::none},
    {"BT", 2856, as_role::access_isp,
     {"London"}, true, congestion_archetype::none},
    {"Deutsche Telekom", 3320, as_role::access_isp,
     {"Frankfurt", "Berlin"}, true, congestion_archetype::none},
    {"Orange", 3215, as_role::access_isp,
     {"Paris"}, true, congestion_archetype::none},
    {"Airtel", 9498, as_role::access_isp,
     {"Delhi", "Mumbai"}, true, congestion_archetype::lossy_premium},
    {"Jio", 55836, as_role::access_isp,
     {"Mumbai", "Delhi", "Bangalore"}, true, congestion_archetype::lossy_premium},
    {"Optus", 4804, as_role::access_isp,
     {"Sydney"}, true, congestion_archetype::lossy_premium},
    {"TPG", 7545, as_role::access_isp,
     {"Sydney", "Melbourne"}, true, congestion_archetype::none},
};

// ---------------------------------------------------------------------------
// Builder
// ---------------------------------------------------------------------------

struct as_build_state {
  as_index index;
  prefix_allocator infra;
  congestion_archetype archetype{congestion_archetype::none};
  bool prone{false};
  double episode_prob{0.0};
};

class internet_builder {
 public:
  explicit internet_builder(const internet_config& config)
      : config_(config), root_(rng(config.seed)) {
    validate();
    net_.config = config;
    net_.geo = std::make_unique<geo_database>(geo_database::builtin());
    net_.topo = std::make_unique<topology>(net_.geo.get());
    net_.load = std::make_unique<link_load_model>(
        hash_tag(config.seed, "load"));
    block_alloc_ = std::make_unique<prefix_allocator>(kAsBlockPool);
    interconnect_alloc_ = std::make_unique<prefix_allocator>(kInterconnectPool);
  }

  internet build() {
    build_cloud();
    build_carriers();
    build_eyeballs();
    build_vantage_points();
    CLASP_LOG(info, "generator")
        << "internet: " << net_.topo->as_count() << " ASes, "
        << net_.topo->router_count() << " routers, "
        << net_.topo->link_count() << " links";
    return std::move(net_);
  }

 private:
  void validate() const {
    if (config_.tier1_count == 0 || config_.tier1_count > 32) {
      throw invalid_argument_error("internet_config: tier1_count out of range");
    }
    const double fractions[] = {
        config_.international_fraction, config_.peering_prob_large_isp,
        config_.peering_prob_regional_isp, config_.peering_prob_hosting,
        config_.peering_prob_education, config_.peering_prob_business,
        config_.congestion_prone_fraction, config_.ipinfo_missing_fraction};
    for (const double f : fractions) {
      if (f < 0.0 || f > 1.0) {
        throw invalid_argument_error("internet_config: fraction outside [0,1]");
      }
    }
    if (config_.episode_prob_lo > config_.episode_prob_hi) {
      throw invalid_argument_error("internet_config: episode prob range");
    }
    if (config_.fleet_scale == 0) {
      throw invalid_argument_error(
          "internet_config: fleet_scale must be >= 1 (synthetic fleet "
          "multiplier; 1 is the paper-scale fleet)");
    }
  }

  topology& topo() { return *net_.topo; }
  const geo_database& geo() const { return *net_.geo; }

  // --- cloud -------------------------------------------------------------

  void build_cloud() {
    net_.cloud = topo().add_as(asn{kCloudAsn}, "Google", as_role::cloud);
    cloud_infra_ = std::make_unique<prefix_allocator>(
        ipv4_prefix::parse("35.0.0.0/16"));
    // Announce host space and the interconnect pool.
    const city_id anchor = geo().city_by_name("Council Bluffs, IA").id;
    topo().announce_prefix(net_.cloud, kCloudPool, anchor);
    topo().announce_prefix(net_.cloud, kInterconnectPool, anchor);
    // VM address space lives inside the cloud pool.
    net_.host_pools[net_.cloud.value].push_back(
        prefix_allocator(ipv4_prefix::parse("35.4.0.0/14")));

    // PoP routers.
    for (const char* name : kPopCityNames) {
      const city_info& c = geo().city_by_name(name);
      const ipv4_addr loopback = cloud_infra_->allocate(32).base();
      topo().add_router(net_.cloud, c.id, loopback);
      net_.pop_cities.push_back(c.id);
    }

    // Full-mesh private WAN between PoPs.
    rng wan_rng = root_.fork("wan");
    for (std::size_t i = 0; i < net_.pop_cities.size(); ++i) {
      for (std::size_t j = i + 1; j < net_.pop_cities.size(); ++j) {
        const city_info& ca = geo().city(net_.pop_cities[i]);
        const city_info& cb = geo().city(net_.pop_cities[j]);
        const router_index ra = *topo().router_of(net_.cloud, ca.id);
        const router_index rb = *topo().router_of(net_.cloud, cb.id);
        const ipv4_prefix p31 = cloud_infra_->allocate(31);
        const link_index li = topo().add_link(
            link_kind::cloud_wan, ra, rb, p31.address_at(0), p31.address_at(1),
            mbps::from_gbps(1000.0), propagation_delay(ca, cb));
        load_profile prof;
        prof.tz = ca.tz;
        prof.fwd = {wan_rng.uniform(0.12, 0.32), wan_rng.uniform(0.05, 0.12),
                    0.03, 0.05, episode_kind::none, 0, 0, 0};
        prof.rev = {wan_rng.uniform(0.12, 0.32), wan_rng.uniform(0.05, 0.12),
                    0.03, 0.05, episode_kind::none, 0, 0, 0};
        topo().link_at(li).load_profile = net_.load->add_profile(prof);
      }
    }
  }

  // --- carriers (tier1 + transit) -----------------------------------------

  void build_carriers() {
    rng carrier_rng = root_.fork("carriers");

    // Tier-1s from the named table (count limited by config).
    const std::size_t n_tier1 =
        std::min(config_.tier1_count, std::size(kTier1Specs));
    for (std::size_t i = 0; i < n_tier1; ++i) {
      carriers_.push_back(build_carrier_as(kTier1Specs[i], carrier_rng));
    }
    // Procedural regional transits.
    for (std::size_t i = 0; i < config_.transit_count; ++i) {
      const std::string name = "Transit-" + std::to_string(i + 1);
      named_as_spec spec{name.c_str(),
                         static_cast<std::uint32_t>(21000 + i),
                         as_role::transit,
                         {},
                         true,
                         congestion_archetype::none};
      carriers_.push_back(build_carrier_as(spec, carrier_rng));
    }
  }

  as_index build_carrier_as(const named_as_spec& spec, rng& r) {
    const as_index idx = create_as(spec.name, spec.number, spec.role,
                                   /*infra_len=*/20);
    net_.archetype_of_as[idx.value] = spec.archetype;
    as_build_state& st = state_of(idx);
    st.archetype = spec.archetype;
    if (spec.archetype != congestion_archetype::none) {
      st.prone = true;
      st.episode_prob = r.uniform(0.12, 0.30);
    }

    // Presence: all region PoP cities (required for standard-tier entry)
    // plus a sample of other major cities.
    std::vector<city_id> cities = region_pop_cities();
    const std::size_t extra =
        (spec.role == as_role::tier1)
            ? 13 + static_cast<std::size_t>(r.uniform_int(0, 5))
            : 6 + static_cast<std::size_t>(r.uniform_int(0, 4));
    std::vector<city_id> pool = net_.pop_cities;
    r.shuffle(pool);
    for (const city_id c : pool) {
      if (cities.size() >= region_pop_cities().size() + extra) break;
      if (std::find(cities.begin(), cities.end(), c) == cities.end()) {
        cities.push_back(c);
      }
    }
    add_presence_and_backbone(idx, cities, r, mbps::from_gbps(600.0));
    announce_host_prefixes(idx, r);

    // Interdomain links with the cloud: at every region PoP city (forced)
    // and at other common cities with probability.
    const auto& info = topo().as_at(idx);
    // One materialized copy: calling region_pop_cities() per begin()/end()
    // would mix iterators of two distinct temporaries (UB caught by TSan).
    const std::vector<city_id> region_cities = region_pop_cities();
    for (const city_id c : info.presence) {
      const bool is_region_city =
          std::find(region_cities.begin(), region_cities.end(), c) !=
          region_cities.end();
      const bool has_pop =
          std::find(net_.pop_cities.begin(), net_.pop_cities.end(), c) !=
          net_.pop_cities.end();
      if (!has_pop) continue;
      const double prob = (spec.role == as_role::tier1) ? 0.75 : 0.5;
      if (is_region_city || r.bernoulli(prob)) {
        add_cloud_link(idx, c, r, mbps::from_gbps(400.0));
      }
    }
    topo().as_at(idx).peers_with_cloud = true;
    register_ipinfo(idx, business_type::isp, r);
    return idx;
  }

  // --- eyeball / hosting / education / business ASes -----------------------

  void build_eyeballs() {
    rng eye_rng = root_.fork("eyeballs");

    // Named eyeballs first.
    for (const named_as_spec& spec : kNamedEyeballs) {
      build_edge_as(spec.name, spec.number, spec.role,
                    named_cities(spec.cities), spec.peers_with_cloud,
                    spec.archetype, eye_rng);
    }

    // Procedural populations.
    std::uint32_t next_asn = 390000;
    const struct {
      as_role role;
      std::size_t count;
      double peer_prob;
    } populations[] = {
        {as_role::access_isp, config_.large_isp_count,
         config_.peering_prob_large_isp},
        {as_role::regional_isp, config_.regional_isp_count,
         config_.peering_prob_regional_isp},
        {as_role::hosting, config_.hosting_count, config_.peering_prob_hosting},
        {as_role::education, config_.education_count,
         config_.peering_prob_education},
        {as_role::business, config_.business_count,
         config_.peering_prob_business},
    };
    for (const auto& pop : populations) {
      for (std::size_t i = 0; i < pop.count; ++i) {
        const std::string name =
            role_name_prefix(pop.role) + "-" + std::to_string(i + 1);
        build_edge_as(name.c_str(), next_asn++, pop.role,
                      procedural_cities(pop.role, eye_rng),
                      eye_rng.bernoulli(pop.peer_prob),
                      congestion_archetype::none, eye_rng);
      }
    }
  }

  static std::string role_name_prefix(as_role role) {
    switch (role) {
      case as_role::access_isp: return "AccessNet";
      case as_role::regional_isp: return "RegionalNet";
      case as_role::hosting: return "HostCo";
      case as_role::education: return "EduNet";
      case as_role::business: return "BizNet";
      default: return "Net";
    }
  }

  std::vector<city_id> named_cities(
      std::initializer_list<const char*> names) const {
    std::vector<city_id> out;
    for (const char* n : names) out.push_back(geo().city_by_name(n).id);
    return out;
  }

  std::vector<city_id> procedural_cities(as_role role, rng& r) {
    const bool international = r.bernoulli(config_.international_fraction);
    std::vector<city_id>& pool = international ? intl_cities_ : us_cities_;
    if (pool.empty()) {
      for (const city_info& c : geo().cities()) {
        ((c.country == "US") ? us_cities_ : intl_cities_).push_back(c.id);
      }
    }
    // Weighted pick by population weight.
    const auto pick_city = [&]() {
      double total = 0.0;
      for (const city_id c : pool) total += geo().city(c).population_weight;
      double x = r.uniform(0.0, total);
      for (const city_id c : pool) {
        x -= geo().city(c).population_weight;
        if (x <= 0.0) return c;
      }
      return pool.back();
    };
    std::vector<city_id> out{pick_city()};
    const std::size_t extra =
        (role == as_role::access_isp)
            ? 2 + static_cast<std::size_t>(r.uniform_int(0, 3))
            : (r.bernoulli(0.2) ? 1 : 0);
    for (std::size_t i = 0; i < extra; ++i) {
      const city_id c = pick_city();
      if (std::find(out.begin(), out.end(), c) == out.end()) out.push_back(c);
    }
    return out;
  }

  void build_edge_as(const char* name, std::uint32_t number, as_role role,
                     std::vector<city_id> cities, bool peer,
                     congestion_archetype archetype, rng& r) {
    const as_index idx = create_as(name, number, role, /*infra_len=*/22);

    // Congestion proneness: the named archetype wins; otherwise eyeball
    // ISPs draw it with an east-coast skew (earlier-timezone metros were
    // harder hit in the paper's campaign).
    as_build_state& st = state_of(idx);
    st.archetype = archetype;
    const city_info& home = geo().city(cities.front());
    if (archetype == congestion_archetype::none &&
        (role == as_role::access_isp || role == as_role::regional_isp)) {
      const double skew = east_skew(home.tz.hours_east_of_utc);
      if (r.bernoulli(config_.congestion_prone_fraction * skew)) {
        st.archetype = congestion_archetype::evening_eyeball;
      }
    }
    // Some international peerings are chronically lossy on the premium
    // path (the mechanism behind the paper's 8 standard-faster targets).
    if (st.archetype == congestion_archetype::none && peer &&
        home.country != "US" && r.bernoulli(0.35)) {
      st.archetype = congestion_archetype::lossy_premium;
    }
    if (st.archetype != congestion_archetype::none) {
      st.prone = true;
      switch (st.archetype) {
        case congestion_archetype::daytime_reverse:
          // The Cox case: frequent business-hours congestion.
          st.episode_prob = r.uniform(0.50, 0.75);
          break;
        case congestion_archetype::std_path_episodes:
          st.episode_prob = r.uniform(0.45, 0.65);
          break;
        case congestion_archetype::all_day:
          st.episode_prob = r.uniform(0.55, 0.80);
          break;
        default:
          st.episode_prob =
              r.uniform(config_.episode_prob_lo, config_.episode_prob_hi);
          break;
      }
    }
    net_.archetype_of_as[idx.value] = st.archetype;

    const mbps backbone_cap = (role == as_role::access_isp)
                                  ? mbps::from_gbps(200.0)
                                  : mbps::from_gbps(60.0);
    add_presence_and_backbone(idx, cities, r, backbone_cap);
    announce_host_prefixes(idx, r);

    // Upstream transit: every edge AS gets one (even cloud peers use it
    // for the rest of the Internet and for standard-tier paths).
    const as_index transit = carriers_[static_cast<std::size_t>(
        r.uniform_int(0, static_cast<std::int64_t>(carriers_.size()) - 1))];
    add_transit_link(idx, transit, r);
    topo().set_primary_transit(idx, transit);

    if (peer) {
      add_cloud_peerings(idx, r);
      topo().as_at(idx).peers_with_cloud = true;
    }

    register_ipinfo(idx, role_to_business(role), r);
  }

  static business_type role_to_business(as_role role) {
    switch (role) {
      case as_role::access_isp:
      case as_role::regional_isp:
      case as_role::tier1:
      case as_role::transit:
        return business_type::isp;
      case as_role::hosting: return business_type::hosting;
      case as_role::education: return business_type::education;
      case as_role::business: return business_type::business;
      case as_role::cloud: return business_type::hosting;
    }
    return business_type::unknown;
  }

  static double east_skew(int tz) {
    // Eastern U.S. (-5) most prone, Pacific (-8) least; elsewhere neutral.
    switch (tz) {
      case -5: return 1.50;
      case -6: return 1.15;
      case -7: return 0.75;
      case -8: return 0.45;
      default: return 1.0;
    }
  }

  // --- shared pieces -------------------------------------------------------

  as_index create_as(const char* name, std::uint32_t number, as_role role,
                     unsigned infra_len) {
    const ipv4_prefix block = block_alloc_->allocate(18);
    prefix_allocator block_local(block);
    const ipv4_prefix infra = block_local.allocate(infra_len);
    const as_index idx = topo().add_as(asn{number}, name, role);
    // Announce the infra prefix so traceroute hops resolve to this AS.
    states_.emplace(idx.value,
                    as_build_state{idx, prefix_allocator(infra),
                                   congestion_archetype::none, false, 0.0});
    blocks_.emplace(idx.value, std::move(block_local));
    topo().announce_prefix(idx, infra, city_id{0});
    return idx;
  }

  as_build_state& state_of(as_index idx) { return states_.at(idx.value); }

  void add_presence_and_backbone(as_index idx, const std::vector<city_id>& cities,
                                 rng& r, mbps backbone_cap) {
    for (const city_id c : cities) {
      const ipv4_addr loopback = state_of(idx).infra.allocate(32).base();
      topo().add_router(idx, c, loopback);
    }
    // Full mesh backbone between presence routers.
    for (std::size_t i = 0; i < cities.size(); ++i) {
      for (std::size_t j = i + 1; j < cities.size(); ++j) {
        const city_info& ca = geo().city(cities[i]);
        const city_info& cb = geo().city(cities[j]);
        const ipv4_prefix p31 = state_of(idx).infra.allocate(31);
        const link_index li = topo().add_link(
            link_kind::backbone, *topo().router_of(idx, cities[i]),
            *topo().router_of(idx, cities[j]), p31.address_at(0),
            p31.address_at(1), backbone_cap, propagation_delay(ca, cb));
        load_profile prof;
        prof.tz = ca.tz;
        prof.fwd = {r.uniform(0.25, 0.45), r.uniform(0.10, 0.22), 0.04, 0.08,
                    episode_kind::none, 0, 0, 0};
        prof.rev = {r.uniform(0.25, 0.45), r.uniform(0.10, 0.22), 0.04, 0.08,
                    episode_kind::none, 0, 0, 0};
        topo().link_at(li).load_profile = net_.load->add_profile(prof);
      }
    }
  }

  void announce_host_prefixes(as_index idx, rng& r) {
    const as_info& info = topo().as_at(idx);
    auto& block = blocks_.at(idx.value);
    const std::size_t n_prefixes =
        1 + static_cast<std::size_t>(r.bernoulli(0.70)) +
        static_cast<std::size_t>(r.bernoulli(0.50));
    for (std::size_t i = 0; i < n_prefixes; ++i) {
      const unsigned len = (i == 0) ? 22 : (r.bernoulli(0.5) ? 23 : 24);
      const city_id anchor =
          info.presence[i % info.presence.size()];
      topo().announce_prefix(idx, block.allocate(len), anchor);
      net_.host_pools[idx.value].push_back(
          prefix_allocator(topo().as_at(idx).prefixes.back().prefix));
    }
    // Fix the infra prefix's anchor now that presence exists.
    topo().as_at(idx).prefixes.front().anchor = info.presence.front();
  }

  void add_transit_link(as_index customer, as_index transit, rng& r) {
    const as_info& cust = topo().as_at(customer);
    const city_id home = cust.presence.front();
    // Transit side: usually the transit's router nearest the customer,
    // but a quarter of edge networks buy backhauled transit delivered at
    // a distant city — the mechanism behind pre-test tuples where the
    // standard tier's latency is clearly higher (premium_lower class).
    const bool std_case = state_of(customer).archetype ==
                          congestion_archetype::std_path_episodes;
    const router_index tr =
        std_case ? farthest_router_of(transit, home)
        : r.bernoulli(0.25)
            ? *topo().router_of(transit,
                                r.pick(topo().as_at(transit).presence))
            : nearest_router_of(transit, home);
    const router_index cr = *topo().router_of(customer, home);
    const ipv4_prefix p31 = state_of(transit).infra.allocate(31);
    const city_info& tcity = geo().city(topo().router_at(tr).city);
    const city_info& ccity = geo().city(home);
    const mbps cap = (cust.role == as_role::access_isp)
                         ? mbps::from_gbps(100.0)
                         : mbps{r.uniform(2000.0, 20000.0)};
    // a = provider (transit), b = customer; addresses from provider infra.
    const link_index li =
        topo().add_link(link_kind::interdomain, tr, cr, p31.address_at(0),
                        p31.address_at(1), cap, propagation_delay(tcity, ccity));
    apply_upstream_profile(li, customer, ccity.tz, r,
                           /*is_cloud_link=*/false);
    net_.transit_link_of[customer.value] = li;
  }

  void add_cloud_peerings(as_index idx, rng& r) {
    const as_info& info = topo().as_at(idx);
    std::vector<city_id> candidates;
    if (r.bernoulli(0.10)) {
      // A minority of networks only peer at distant PoPs (e.g. a single
      // remote IX port). Their premium-tier path detours there, which is
      // the mechanism behind pre-test tuples where the premium tier's
      // latency is clearly higher (standard_lower class).
      for (std::size_t n = 2; n <= 4; ++n) {
        const city_id pop = nth_nearest_pop_city(info.presence.front(), n);
        if (std::find(candidates.begin(), candidates.end(), pop) ==
            candidates.end()) {
          candidates.push_back(pop);
        }
      }
    } else {
      // Candidate PoP cities: nearest PoP to each presence city.
      for (const city_id c : info.presence) {
        const city_id pop = nearest_pop_city(c);
        if (std::find(candidates.begin(), candidates.end(), pop) ==
            candidates.end()) {
          candidates.push_back(pop);
        }
      }
      // Plus the second- and third-nearest PoPs to the home city
      // (multi-homed peering).
      for (std::size_t n = 1; n <= 2; ++n) {
        const city_id pop = nth_nearest_pop_city(info.presence.front(), n);
        if (std::find(candidates.begin(), candidates.end(), pop) ==
            candidates.end()) {
          candidates.push_back(pop);
        }
      }
    }
    const double extra_p =
        std::clamp(config_.mean_cloud_links - 1.0, 0.0, 2.0) / 2.0;
    const std::size_t n_links = std::min<std::size_t>(
        candidates.size(),
        1 + static_cast<std::size_t>(r.bernoulli(extra_p)) +
            static_cast<std::size_t>(r.bernoulli(extra_p * 0.7)));
    const bool skinny_port =
        state_of(idx).archetype == congestion_archetype::lossy_premium ||
        state_of(idx).archetype == congestion_archetype::std_path_episodes;
    for (std::size_t i = 0; i < n_links; ++i) {
      // Chronically troubled peerings run on small, hot ports — the
      // structural reason their premium-tier paths underperform.
      const mbps cap = skinny_port ? mbps{r.uniform(800.0, 1600.0)}
                       : (info.role == as_role::access_isp)
                           ? mbps::from_gbps(100.0)
                           : mbps{r.uniform(2000.0, 20000.0)};
      add_cloud_link(idx, candidates[i], r, cap);
    }
  }

  // Create one cloud<->AS interdomain link at PoP city `pop_c`. The AS side
  // lands on the AS's router nearest to the PoP.
  void add_cloud_link(as_index idx, city_id pop_c, rng& r, mbps capacity) {
    const router_index gr = *topo().router_of(net_.cloud, pop_c);
    const router_index ar = nearest_router_of(idx, pop_c);
    const ipv4_prefix p31 = interconnect_alloc_->allocate(31);
    const city_info& gcity = geo().city(pop_c);
    const city_info& acity = geo().city(topo().router_at(ar).city);
    // a = cloud, b = neighbor; both interface addresses come from the
    // cloud's interconnect pool (provider-side addressing).
    const link_index li = topo().add_link(
        link_kind::interdomain, gr, ar, p31.address_at(0), p31.address_at(1),
        capacity, propagation_delay(gcity, acity));
    apply_upstream_profile(li, idx, acity.tz, r, /*is_cloud_link=*/true);
  }

  // Load profile for an AS's upstream link (cloud peering or transit).
  // Direction conventions: a = provider/cloud side, b = edge AS side, so
  // b_to_a is the AS -> cloud/transit (ingress/download-test) direction.
  void apply_upstream_profile(link_index li, as_index edge_as,
                              timezone_offset tz, rng& r, bool is_cloud_link) {
    const as_build_state& st = state_of(edge_as);
    const as_role role = topo().as_at(edge_as).role;
    const bool carrier =
        role == as_role::tier1 || role == as_role::transit;
    load_profile prof;
    prof.tz = tz;
    // Toward the edge AS (upload-test data direction): eyeball downstream
    // background, moderate.
    prof.fwd = {r.uniform(0.25, 0.45), r.uniform(0.12, 0.28), 0.05, 0.12,
                episode_kind::none, 0, 0, 0};
    // Toward the provider/cloud (download-test data direction).
    prof.rev = {r.uniform(0.26, 0.48), r.uniform(0.05, 0.16), 0.065, 0.10,
                episode_kind::none, 0, 0, 0};
    // Systematic tilt behind Fig. 5: direct edge peering ports run hotter
    // than the fat carrier interconnects at region PoPs, so premium-tier
    // paths (edge peering near the endpoint) see slightly less headroom
    // than standard-tier paths (carrier interconnect at the region).
    if (is_cloud_link) {
      const bool skinny =
          st.archetype == congestion_archetype::lossy_premium ||
          st.archetype == congestion_archetype::std_path_episodes;
      prof.rev.base_util += carrier ? -0.06 : (skinny ? 0.16 : 0.07);
      prof.rev.base_util = std::clamp(prof.rev.base_util, 0.05, 0.64);
    }

    episode_kind kind = episode_kind::none;
    bool episodes_on_this_link = false;
    switch (st.archetype) {
      case congestion_archetype::none:
        break;
      case congestion_archetype::evening_eyeball:
        kind = episode_kind::evening_peak;
        episodes_on_this_link = true;  // both upstream kinds affected
        break;
      case congestion_archetype::daytime_reverse:
        kind = episode_kind::daytime;
        episodes_on_this_link = is_cloud_link;  // the Cox case: peerings only
        break;
      case congestion_archetype::all_day:
        kind = episode_kind::all_day;
        episodes_on_this_link = is_cloud_link;
        break;
      case congestion_archetype::lossy_premium:
        if (is_cloud_link) {
          // Lossy premium peering: a small persistent floor plus daytime
          // overload episodes. The episodes produce the >10% *average*
          // measured loss the paper reports while most individual tests
          // stay within a moderate throughput deficit.
          prof.rev.episodes = episode_kind::daytime;
          prof.rev.episode_prob = r.uniform(0.55, 0.80);
          prof.rev.episode_severity = r.uniform(0.6, 1.0);
          net_.planted.push_back({li, link_dir::b_to_a, episode_kind::daytime});
        }
        break;
      case congestion_archetype::std_path_episodes:
        if (!is_cloud_link) {
          // Standard-tier path (via transit) congests in the evening.
          kind = episode_kind::evening_peak;
          episodes_on_this_link = true;
        } else {
          // The premium peering congests in daytime too (Fig. 5's premium
          // throughput deficit for these targets).
          prof.rev.episodes = episode_kind::daytime;
          prof.rev.episode_prob = r.uniform(0.15, 0.30);
          prof.rev.episode_severity = r.uniform(0.45, 0.8);
          net_.planted.push_back({li, link_dir::b_to_a, episode_kind::daytime});
        }
        break;
    }

    if (episodes_on_this_link && kind != episode_kind::none) {
      // Congestion in the AS -> cloud direction (the paper's ingress
      // congestion; Cox's reverse-path case).
      prof.rev.episodes = kind;
      prof.rev.episode_prob = st.episode_prob;
      prof.rev.episode_severity = (kind == episode_kind::daytime)
                                      ? r.uniform(0.6, 1.1)
                                      : r.uniform(0.45, 0.95);
      net_.planted.push_back({li, link_dir::b_to_a, kind});
      // Evening congestion also mildly affects the downstream direction.
      if (kind == episode_kind::evening_peak && r.bernoulli(0.3)) {
        prof.fwd.episodes = kind;
        prof.fwd.episode_prob = st.episode_prob * 0.5;
        prof.fwd.episode_severity = r.uniform(0.3, 0.6);
        net_.planted.push_back({li, link_dir::a_to_b, kind});
      }
    }
    topo().link_at(li).load_profile = net_.load->add_profile(prof);
  }

  router_index nearest_router_of(as_index idx, city_id target) const {
    const as_info& info = net_.topo->as_at(idx);
    double best = 1e18;
    city_id best_city = info.presence.front();
    for (const city_id c : info.presence) {
      const double d = geo().distance_km(c, target);
      if (d < best) {
        best = d;
        best_city = c;
      }
    }
    return *net_.topo->router_of(idx, best_city);
  }

  router_index farthest_router_of(as_index idx, city_id target) const {
    const as_info& info = net_.topo->as_at(idx);
    double best = -1.0;
    city_id best_city = info.presence.front();
    for (const city_id c : info.presence) {
      const double d = geo().distance_km(c, target);
      if (d > best) {
        best = d;
        best_city = c;
      }
    }
    return *net_.topo->router_of(idx, best_city);
  }

  city_id nearest_pop_city(city_id from) {
    return nth_nearest_pop_city(from, 0);
  }
  city_id nth_nearest_pop_city(city_id from, std::size_t n) {
    // The sort compares distance only, so tied pop cities keep whatever
    // order std::sort leaves them in. Each `from`'s order is therefore
    // memoized from that same sort over the same (fixed) pop_cities,
    // rather than replaced by a selection that could break ties apart.
    auto [it, fresh] = pop_order_.try_emplace(from.value);
    std::vector<city_id>& order = it->second;
    if (fresh) {
      std::vector<std::pair<double, city_id>> dist;
      dist.reserve(net_.pop_cities.size());
      for (const city_id c : net_.pop_cities) {
        dist.emplace_back(geo().distance_km(c, from), c);
      }
      std::sort(dist.begin(), dist.end(),
                [](const auto& a, const auto& b) { return a.first < b.first; });
      order.reserve(dist.size());
      for (const auto& [d, c] : dist) order.push_back(c);
    }
    return order[std::min(n, order.size() - 1)];
  }

  std::vector<city_id> region_pop_cities() const {
    static const char* const kRegionCities[] = {
        "The Dalles, OR", "Los Angeles, CA", "Las Vegas, NV",
        "Moncks Corner, SC", "Ashburn, VA", "Council Bluffs, IA",
        "St. Ghislain"};
    std::vector<city_id> out;
    for (const char* n : kRegionCities) out.push_back(geo().city_by_name(n).id);
    return out;
  }

  void register_ipinfo(as_index idx, business_type type, rng& r) {
    if (!r.bernoulli(config_.ipinfo_missing_fraction)) {
      net_.ipinfo.add(topo().as_at(idx).number, type, topo().as_at(idx).name);
    }
  }

  // --- vantage points ------------------------------------------------------

  void build_vantage_points() {
    rng vp_rng = root_.fork("vps");
    // Speedchecker has probes inside every major ISP: seed one VP per
    // presence city of each named eyeball AS so the differential pre-test
    // can always form tuples for the paper's case-study networks.
    for (const named_as_spec& spec : kNamedEyeballs) {
      const auto idx = topo().find_as(asn{spec.number});
      if (!idx) continue;
      for (const city_id c : topo().as_at(*idx).presence) {
        const host_index h =
            net_.attach_host(*idx, c, host_flavor::vantage_point,
                             mbps{vp_rng.uniform(100.0, 500.0)}, vp_rng);
        net_.vantage_points.push_back(h);
      }
    }
    // Eligible ASes: eyeball ISPs.
    std::vector<as_index> eyeballs;
    for (const as_info& a : topo().ases()) {
      if (a.role == as_role::access_isp || a.role == as_role::regional_isp) {
        eyeballs.push_back(a.index);
      }
    }
    for (std::size_t i = 0;
         i < config_.vantage_point_count && !eyeballs.empty(); ++i) {
      const as_index a = vp_rng.pick(eyeballs);
      const as_info& info = topo().as_at(a);
      const city_id c = vp_rng.pick(info.presence);
      const host_index h =
          net_.attach_host(a, c, host_flavor::vantage_point,
                           mbps{vp_rng.uniform(100.0, 500.0)}, vp_rng);
      net_.vantage_points.push_back(h);
    }
  }

 private:
  internet_config config_;
  rng root_;
  internet net_;
  std::unique_ptr<prefix_allocator> block_alloc_;
  std::unique_ptr<prefix_allocator> interconnect_alloc_;
  std::unique_ptr<prefix_allocator> cloud_infra_;
  std::vector<as_index> carriers_;
  std::unordered_map<std::uint32_t, as_build_state> states_;
  std::unordered_map<std::uint32_t, prefix_allocator> blocks_;
  std::vector<city_id> us_cities_;
  std::vector<city_id> intl_cities_;
  // Pop cities by distance from a city (nth_nearest_pop_city).
  std::unordered_map<std::uint32_t, std::vector<city_id>> pop_order_;
};

}  // namespace

congestion_archetype internet::archetype(as_index a) const {
  const auto it = archetype_of_as.find(a.value);
  return it == archetype_of_as.end() ? congestion_archetype::none : it->second;
}

ipv4_addr internet::allocate_host_address(as_index owner, rng& r) {
  const auto it = host_pools.find(owner.value);
  if (it == host_pools.end() || it->second.empty()) {
    throw not_found_error("internet: AS " + topo->as_at(owner).name +
                          " has no host address pool");
  }
  auto& pools = it->second;
  // Prefer a random pool, but fall through to any pool with space.
  const std::size_t start = static_cast<std::size_t>(
      r.uniform_int(0, static_cast<std::int64_t>(pools.size()) - 1));
  for (std::size_t k = 0; k < pools.size(); ++k) {
    auto& pool = pools[(start + k) % pools.size()];
    if (pool.remaining() > 0) return pool.allocate(32).base();
  }
  throw state_error("internet: host pools exhausted for AS " +
                    topo->as_at(owner).name);
}

host_index internet::attach_host(as_index owner, city_id city,
                                 host_flavor flavor, mbps nic_capacity,
                                 rng& r) {
  const auto router = topo->router_of(owner, city);
  if (!router) {
    throw not_found_error("internet: AS " + topo->as_at(owner).name +
                          " has no presence in city " +
                          geo->city(city).name);
  }
  const ipv4_addr addr = allocate_host_address(owner, r);
  const host_index h = topo->add_host(owner, city, addr, *router, nic_capacity);

  load_profile prof;
  prof.tz = geo->city(city).tz;
  switch (flavor) {
    case host_flavor::server:
      // rev (host -> network) carries the download-test data: the server's
      // shared serving load lives there.
      prof.rev = {r.uniform(0.30, 0.62), r.uniform(0.05, 0.18), 0.07, 0.10,
                  episode_kind::none, 0, 0, 0};
      prof.fwd = {r.uniform(0.05, 0.20), r.uniform(0.05, 0.15), 0.05, 0.10,
                  episode_kind::none, 0, 0, 0};
      break;
    case host_flavor::vantage_point:
      prof.rev = {r.uniform(0.10, 0.30), r.uniform(0.10, 0.25), 0.06, 0.15,
                  episode_kind::none, 0, 0, 0};
      prof.fwd = {r.uniform(0.15, 0.40), r.uniform(0.10, 0.30), 0.06, 0.15,
                  episode_kind::none, 0, 0, 0};
      break;
    case host_flavor::vm:
      // Shared-tenancy contention on the VM host NIC is small but nonzero.
      prof.rev = {0.02, 0.02, 0.02, 0.0, episode_kind::none, 0, 0, 0};
      prof.fwd = {0.02, 0.02, 0.02, 0.0, episode_kind::none, 0, 0, 0};
      break;
  }
  topo->link_at(topo->host_at(h).access).load_profile =
      load->add_profile(prof);
  return h;
}

internet generate_internet(const internet_config& config) {
  internet_builder builder(config);
  return builder.build();
}

asn cloud_asn() { return asn{kCloudAsn}; }

ipv4_prefix cloud_interconnect_pool() { return kInterconnectPool; }

}  // namespace clasp
