"""City gazetteer: the geographic universe of the synthetic Internet.

Every client block, LDNS deployment, CDN deployment, and origin in the
simulator lives in (or near) one of these cities.  Coordinates are
approximate city-centre values; ``weight`` is roughly the metro
population in millions and drives where client demand is generated.

The country set intentionally covers the 25 countries the paper's
Figures 6, 8, and 9 break out (IN TR VN MX BR ID AU RU IT JP US MY CA DE
FR GB NL AR TH CH ES HK KR SG TW) plus enough others for a realistic
global demand mix.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Tuple

from repro.net.geometry import GeoPoint


@dataclass(frozen=True, slots=True)
class City:
    """One city in the gazetteer."""

    name: str
    country: str
    """ISO 3166-1 alpha-2 country code."""
    geo: GeoPoint
    weight: float
    """Approximate metro population in millions (demand weight)."""
    continent: str
    """Two-letter continent code: NA SA EU AS OC AF."""


def _c(name: str, country: str, lat: float, lon: float,
       weight: float, continent: str) -> City:
    return City(name, country, GeoPoint(lat, lon), weight, continent)


# name, country, lat, lon, metro-millions, continent
WORLD_CITIES: Tuple[City, ...] = (
    # --- United States ---
    _c("New York", "US", 40.71, -74.01, 19.8, "NA"),
    _c("Los Angeles", "US", 34.05, -118.24, 13.2, "NA"),
    _c("Chicago", "US", 41.88, -87.63, 9.5, "NA"),
    _c("Dallas", "US", 32.78, -96.80, 7.6, "NA"),
    _c("Houston", "US", 29.76, -95.37, 7.1, "NA"),
    _c("Washington", "US", 38.91, -77.04, 6.3, "NA"),
    _c("Miami", "US", 25.76, -80.19, 6.1, "NA"),
    _c("Philadelphia", "US", 39.95, -75.17, 6.2, "NA"),
    _c("Atlanta", "US", 33.75, -84.39, 6.0, "NA"),
    _c("Phoenix", "US", 33.45, -112.07, 4.9, "NA"),
    _c("Boston", "US", 42.36, -71.06, 4.9, "NA"),
    _c("San Francisco", "US", 37.77, -122.42, 4.7, "NA"),
    _c("Seattle", "US", 47.61, -122.33, 4.0, "NA"),
    _c("Minneapolis", "US", 44.98, -93.27, 3.7, "NA"),
    _c("San Diego", "US", 32.72, -117.16, 3.3, "NA"),
    _c("Denver", "US", 39.74, -104.99, 3.0, "NA"),
    _c("St. Louis", "US", 38.63, -90.20, 2.8, "NA"),
    _c("Portland", "US", 45.52, -122.68, 2.5, "NA"),
    _c("Charlotte", "US", 35.23, -80.84, 2.7, "NA"),
    _c("Salt Lake City", "US", 40.76, -111.89, 1.2, "NA"),
    _c("Kansas City", "US", 39.10, -94.58, 2.2, "NA"),
    _c("Anchorage", "US", 61.22, -149.90, 0.4, "NA"),
    _c("Honolulu", "US", 21.31, -157.86, 1.0, "NA"),
    # --- Canada ---
    _c("Toronto", "CA", 43.65, -79.38, 6.2, "NA"),
    _c("Montreal", "CA", 45.50, -73.57, 4.3, "NA"),
    _c("Vancouver", "CA", 49.28, -123.12, 2.6, "NA"),
    _c("Calgary", "CA", 51.05, -114.07, 1.5, "NA"),
    _c("Ottawa", "CA", 45.42, -75.70, 1.4, "NA"),
    _c("Winnipeg", "CA", 49.90, -97.14, 0.8, "NA"),
    _c("Halifax", "CA", 44.65, -63.58, 0.5, "NA"),
    # --- Mexico ---
    _c("Mexico City", "MX", 19.43, -99.13, 21.8, "NA"),
    _c("Guadalajara", "MX", 20.66, -103.35, 5.3, "NA"),
    _c("Monterrey", "MX", 25.69, -100.32, 5.0, "NA"),
    _c("Tijuana", "MX", 32.51, -117.04, 2.2, "NA"),
    _c("Cancun", "MX", 21.16, -86.85, 0.9, "NA"),
    _c("Merida", "MX", 20.97, -89.62, 1.2, "NA"),
    # --- Brazil ---
    _c("Sao Paulo", "BR", -23.55, -46.63, 21.7, "SA"),
    _c("Rio de Janeiro", "BR", -22.91, -43.17, 13.1, "SA"),
    _c("Belo Horizonte", "BR", -19.92, -43.94, 6.0, "SA"),
    _c("Brasilia", "BR", -15.79, -47.88, 4.6, "SA"),
    _c("Porto Alegre", "BR", -30.03, -51.23, 4.3, "SA"),
    _c("Recife", "BR", -8.05, -34.88, 4.1, "SA"),
    _c("Fortaleza", "BR", -3.72, -38.54, 4.0, "SA"),
    _c("Salvador", "BR", -12.97, -38.50, 3.9, "SA"),
    _c("Curitiba", "BR", -25.43, -49.27, 3.7, "SA"),
    _c("Manaus", "BR", -3.12, -60.02, 2.6, "SA"),
    # --- Argentina ---
    _c("Buenos Aires", "AR", -34.60, -58.38, 15.2, "SA"),
    _c("Cordoba", "AR", -31.42, -64.18, 1.6, "SA"),
    _c("Rosario", "AR", -32.95, -60.64, 1.5, "SA"),
    _c("Mendoza", "AR", -32.89, -68.84, 1.2, "SA"),
    # --- Other South America ---
    _c("Santiago", "CL", -33.45, -70.67, 7.1, "SA"),
    _c("Lima", "PE", -12.05, -77.04, 10.7, "SA"),
    _c("Bogota", "CO", 4.71, -74.07, 10.8, "SA"),
    _c("Medellin", "CO", 6.25, -75.56, 4.0, "SA"),
    _c("Caracas", "VE", 10.48, -66.90, 2.9, "SA"),
    _c("Quito", "EC", -0.18, -78.47, 2.0, "SA"),
    _c("Montevideo", "UY", -34.90, -56.19, 1.8, "SA"),
    # --- United Kingdom ---
    _c("London", "GB", 51.51, -0.13, 14.3, "EU"),
    _c("Manchester", "GB", 53.48, -2.24, 2.8, "EU"),
    _c("Birmingham", "GB", 52.49, -1.89, 2.6, "EU"),
    _c("Glasgow", "GB", 55.86, -4.25, 1.7, "EU"),
    _c("Leeds", "GB", 53.80, -1.55, 1.9, "EU"),
    # --- Germany ---
    _c("Berlin", "DE", 52.52, 13.40, 4.5, "EU"),
    _c("Frankfurt", "DE", 50.11, 8.68, 2.7, "EU"),
    _c("Munich", "DE", 48.14, 11.58, 2.9, "EU"),
    _c("Hamburg", "DE", 53.55, 9.99, 2.6, "EU"),
    _c("Cologne", "DE", 50.94, 6.96, 2.2, "EU"),
    _c("Stuttgart", "DE", 48.78, 9.18, 1.9, "EU"),
    # --- France ---
    _c("Paris", "FR", 48.86, 2.35, 12.6, "EU"),
    _c("Lyon", "FR", 45.76, 4.84, 2.3, "EU"),
    _c("Marseille", "FR", 43.30, 5.37, 1.9, "EU"),
    _c("Toulouse", "FR", 43.60, 1.44, 1.4, "EU"),
    _c("Lille", "FR", 50.63, 3.07, 1.2, "EU"),
    # --- Italy ---
    _c("Milan", "IT", 45.46, 9.19, 4.3, "EU"),
    _c("Rome", "IT", 41.90, 12.50, 4.4, "EU"),
    _c("Naples", "IT", 40.85, 14.27, 3.1, "EU"),
    _c("Turin", "IT", 45.07, 7.69, 1.7, "EU"),
    _c("Palermo", "IT", 38.12, 13.36, 1.0, "EU"),
    # --- Spain ---
    _c("Madrid", "ES", 40.42, -3.70, 6.7, "EU"),
    _c("Barcelona", "ES", 41.39, 2.17, 5.6, "EU"),
    _c("Valencia", "ES", 39.47, -0.38, 1.6, "EU"),
    _c("Seville", "ES", 37.39, -5.98, 1.5, "EU"),
    # --- Netherlands ---
    _c("Amsterdam", "NL", 52.37, 4.90, 2.5, "EU"),
    _c("Rotterdam", "NL", 51.92, 4.48, 1.8, "EU"),
    _c("Eindhoven", "NL", 51.44, 5.47, 0.8, "EU"),
    # --- Switzerland ---
    _c("Zurich", "CH", 47.38, 8.54, 1.4, "EU"),
    _c("Geneva", "CH", 46.20, 6.14, 0.6, "EU"),
    _c("Basel", "CH", 47.56, 7.59, 0.6, "EU"),
    # --- Rest of Europe ---
    _c("Brussels", "BE", 50.85, 4.35, 2.1, "EU"),
    _c("Vienna", "AT", 48.21, 16.37, 1.9, "EU"),
    _c("Warsaw", "PL", 52.23, 21.01, 3.1, "EU"),
    _c("Krakow", "PL", 50.06, 19.94, 1.4, "EU"),
    _c("Prague", "CZ", 50.08, 14.44, 1.3, "EU"),
    _c("Budapest", "HU", 47.50, 19.04, 1.8, "EU"),
    _c("Bucharest", "RO", 44.43, 26.10, 1.8, "EU"),
    _c("Sofia", "BG", 42.70, 23.32, 1.3, "EU"),
    _c("Athens", "GR", 37.98, 23.73, 3.2, "EU"),
    _c("Lisbon", "PT", 38.72, -9.14, 2.9, "EU"),
    _c("Dublin", "IE", 53.35, -6.26, 1.4, "EU"),
    _c("Stockholm", "SE", 59.33, 18.07, 2.4, "EU"),
    _c("Gothenburg", "SE", 57.71, 11.97, 1.0, "EU"),
    _c("Oslo", "NO", 59.91, 10.75, 1.6, "EU"),
    _c("Copenhagen", "DK", 55.68, 12.57, 2.1, "EU"),
    _c("Helsinki", "FI", 60.17, 24.94, 1.5, "EU"),
    _c("Kyiv", "UA", 50.45, 30.52, 3.0, "EU"),
    # --- Russia ---
    _c("Moscow", "RU", 55.76, 37.62, 17.1, "EU"),
    _c("Saint Petersburg", "RU", 59.93, 30.34, 5.4, "EU"),
    _c("Novosibirsk", "RU", 55.03, 82.92, 1.6, "AS"),
    _c("Yekaterinburg", "RU", 56.84, 60.61, 1.5, "AS"),
    _c("Kazan", "RU", 55.80, 49.11, 1.3, "EU"),
    _c("Vladivostok", "RU", 43.12, 131.89, 0.6, "AS"),
    _c("Samara", "RU", 53.20, 50.15, 1.2, "EU"),
    # --- Turkey ---
    _c("Istanbul", "TR", 41.01, 28.98, 15.0, "EU"),
    _c("Ankara", "TR", 39.93, 32.86, 5.1, "AS"),
    _c("Izmir", "TR", 38.42, 27.13, 3.0, "AS"),
    _c("Antalya", "TR", 36.90, 30.70, 1.2, "AS"),
    _c("Gaziantep", "TR", 37.07, 37.38, 1.7, "AS"),
    # --- India ---
    _c("Delhi", "IN", 28.61, 77.21, 29.4, "AS"),
    _c("Mumbai", "IN", 19.08, 72.88, 20.4, "AS"),
    _c("Kolkata", "IN", 22.57, 88.36, 14.9, "AS"),
    _c("Bangalore", "IN", 12.97, 77.59, 11.4, "AS"),
    _c("Chennai", "IN", 13.08, 80.27, 10.5, "AS"),
    _c("Hyderabad", "IN", 17.39, 78.49, 9.7, "AS"),
    _c("Ahmedabad", "IN", 23.02, 72.57, 7.7, "AS"),
    _c("Pune", "IN", 18.52, 73.86, 6.5, "AS"),
    _c("Surat", "IN", 21.17, 72.83, 6.0, "AS"),
    _c("Jaipur", "IN", 26.91, 75.79, 3.9, "AS"),
    _c("Lucknow", "IN", 26.85, 80.95, 3.5, "AS"),
    _c("Kanpur", "IN", 26.45, 80.33, 3.0, "AS"),
    _c("Nagpur", "IN", 21.15, 79.09, 2.9, "AS"),
    _c("Kochi", "IN", 9.93, 76.27, 2.1, "AS"),
    _c("Guwahati", "IN", 26.14, 91.74, 1.1, "AS"),
    # --- China (demand context; not in paper's top-25 breakdown) ---
    _c("Beijing", "CN", 39.90, 116.41, 20.4, "AS"),
    _c("Shanghai", "CN", 31.23, 121.47, 26.3, "AS"),
    _c("Guangzhou", "CN", 23.13, 113.26, 13.3, "AS"),
    _c("Shenzhen", "CN", 22.54, 114.06, 12.4, "AS"),
    _c("Chengdu", "CN", 30.57, 104.07, 9.1, "AS"),
    _c("Wuhan", "CN", 30.59, 114.31, 8.4, "AS"),
    # --- Japan ---
    _c("Tokyo", "JP", 35.68, 139.69, 37.4, "AS"),
    _c("Osaka", "JP", 34.69, 135.50, 19.2, "AS"),
    _c("Nagoya", "JP", 35.18, 136.91, 9.5, "AS"),
    _c("Fukuoka", "JP", 33.59, 130.40, 2.6, "AS"),
    _c("Sapporo", "JP", 43.06, 141.35, 2.7, "AS"),
    _c("Sendai", "JP", 38.27, 140.87, 2.3, "AS"),
    # --- South Korea ---
    _c("Seoul", "KR", 37.57, 126.98, 25.5, "AS"),
    _c("Busan", "KR", 35.18, 129.08, 3.4, "AS"),
    _c("Incheon", "KR", 37.46, 126.71, 2.9, "AS"),
    _c("Daegu", "KR", 35.87, 128.60, 2.4, "AS"),
    # --- Taiwan ---
    _c("Taipei", "TW", 25.03, 121.57, 7.0, "AS"),
    _c("Kaohsiung", "TW", 22.63, 120.30, 2.8, "AS"),
    _c("Taichung", "TW", 24.15, 120.67, 2.8, "AS"),
    # --- Hong Kong / Singapore ---
    _c("Hong Kong", "HK", 22.32, 114.17, 7.5, "AS"),
    _c("Singapore", "SG", 1.35, 103.82, 5.7, "AS"),
    # --- Southeast Asia ---
    _c("Jakarta", "ID", -6.21, 106.85, 34.5, "AS"),
    _c("Surabaya", "ID", -7.26, 112.75, 6.5, "AS"),
    _c("Bandung", "ID", -6.92, 107.61, 8.1, "AS"),
    _c("Medan", "ID", 3.59, 98.67, 4.6, "AS"),
    _c("Makassar", "ID", -5.15, 119.43, 1.7, "AS"),
    _c("Bangkok", "TH", 13.76, 100.50, 16.9, "AS"),
    _c("Chiang Mai", "TH", 18.79, 98.98, 1.2, "AS"),
    _c("Khon Kaen", "TH", 16.43, 102.84, 0.5, "AS"),
    _c("Kuala Lumpur", "MY", 3.14, 101.69, 7.9, "AS"),
    _c("Penang", "MY", 5.42, 100.33, 2.5, "AS"),
    _c("Johor Bahru", "MY", 1.49, 103.74, 1.8, "AS"),
    _c("Ho Chi Minh City", "VN", 10.82, 106.63, 13.3, "AS"),
    _c("Hanoi", "VN", 21.03, 105.85, 8.1, "AS"),
    _c("Da Nang", "VN", 16.05, 108.22, 1.2, "AS"),
    _c("Manila", "PH", 14.60, 120.98, 13.5, "AS"),
    _c("Cebu", "PH", 10.32, 123.89, 2.9, "AS"),
    # --- Middle East / Africa ---
    _c("Dubai", "AE", 25.20, 55.27, 3.3, "AS"),
    _c("Riyadh", "SA", 24.71, 46.68, 7.0, "AS"),
    _c("Tel Aviv", "IL", 32.09, 34.78, 4.0, "AS"),
    _c("Cairo", "EG", 30.04, 31.24, 20.5, "AF"),
    _c("Lagos", "NG", 6.52, 3.38, 14.4, "AF"),
    _c("Nairobi", "KE", -1.29, 36.82, 4.7, "AF"),
    _c("Johannesburg", "ZA", -26.20, 28.05, 9.6, "AF"),
    _c("Cape Town", "ZA", -33.92, 18.42, 4.6, "AF"),
    _c("Casablanca", "MA", 33.57, -7.59, 3.7, "AF"),
    # --- Oceania ---
    _c("Sydney", "AU", -33.87, 151.21, 5.3, "OC"),
    _c("Melbourne", "AU", -37.81, 144.96, 5.1, "OC"),
    _c("Brisbane", "AU", -27.47, 153.03, 2.5, "OC"),
    _c("Perth", "AU", -31.95, 115.86, 2.1, "OC"),
    _c("Adelaide", "AU", -34.93, 138.60, 1.4, "OC"),
    _c("Auckland", "NZ", -36.85, 174.76, 1.7, "OC"),
    _c("Wellington", "NZ", -41.29, 174.78, 0.4, "OC"),
)


@lru_cache(maxsize=1)
def cities_by_country() -> Dict[str, List[City]]:
    """Group the gazetteer by ISO country code."""
    grouped: Dict[str, List[City]] = {}
    for city in WORLD_CITIES:
        grouped.setdefault(city.country, []).append(city)
    return grouped


@lru_cache(maxsize=1)
def city_index() -> Dict[str, City]:
    """Index the gazetteer by city name (names are unique)."""
    index = {city.name: city for city in WORLD_CITIES}
    if len(index) != len(WORLD_CITIES):
        raise AssertionError("duplicate city names in gazetteer")
    return index
