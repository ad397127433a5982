"""Sunlight environment model — the source of the light coefficient k_eh.

The paper derives the harvested power from ``P_eh = A_eh * k_eh`` (Eq. 1)
where ``k_eh`` "reflects the complex attributes of photovoltaic modules
and can be obtained using existing EH modeling tools [pvlib]".  pvlib is
not available offline, so this module substitutes a self-contained
clear-sky irradiance model:

* the Haurwitz clear-sky model gives global horizontal irradiance (GHI)
  as a function of the solar zenith angle;
* a simple diurnal geometry gives the zenith angle from the hour of day;
* a cloudiness attenuation and the panel's conversion efficiency fold
  everything into the single coefficient ``k_eh`` in W/cm^2.

The paper evaluates under two static environments ("brighter" and
"darker") because sunlight is stable within one inference (<5 minutes)
but varies across a day; :meth:`LightEnvironment.brighter` and
:meth:`LightEnvironment.darker` are those presets, and
:meth:`LightEnvironment.k_eh_at` exposes the full diurnal profile for
long-horizon simulations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.units import irradiance_to_w_per_cm2

#: Extraterrestrial-scale constant of the Haurwitz model, W/m^2.
_HAURWITZ_SCALE = 1098.0
#: Optical-depth constant of the Haurwitz model.
_HAURWITZ_DECAY = 0.057


def haurwitz_ghi(zenith_deg: float) -> float:
    """Clear-sky global horizontal irradiance, W/m^2 (Haurwitz 1945).

    Returns 0 for zenith angles at or beyond 90 degrees (sun below the
    horizon).  This is the same clear-sky family pvlib ships.
    """
    if zenith_deg >= 90.0:
        return 0.0
    cos_z = math.cos(math.radians(zenith_deg))
    return _HAURWITZ_SCALE * cos_z * math.exp(-_HAURWITZ_DECAY / cos_z)


def solar_zenith_deg(hour_of_day: float, peak_elevation_deg: float = 70.0) -> float:
    """Approximate solar zenith angle for a mid-latitude site.

    Uses a sinusoidal elevation profile between 6:00 and 18:00 with the
    given peak elevation at solar noon.  Outside daylight hours the sun
    is below the horizon (zenith 90+).
    """
    if hour_of_day < 6.0 or hour_of_day > 18.0:
        return 90.0
    phase = (hour_of_day - 6.0) / 12.0 * math.pi
    elevation = peak_elevation_deg * math.sin(phase)
    return 90.0 - elevation


@dataclass(frozen=True)
class LightEnvironment:
    """A lighting scenario that yields the coefficient ``k_eh``.

    Parameters
    ----------
    cloudiness:
        0 for a perfectly clear sky, 1 for full overcast.  Irradiance is
        attenuated by ``(1 - 0.75 * cloudiness**3)``, the Kasten-Czeplak
        cloud model.
    panel_efficiency:
        Photovoltaic conversion efficiency folded into ``k_eh`` so that
        ``P_eh = A_eh * k_eh`` directly yields electrical power.
    peak_elevation_deg:
        Sun's elevation at solar noon (site latitude proxy).
    deployment_factor:
        Orientation / shading / soiling derating of a fielded panel.
        Deployed AuT harvesters rarely face the sun at normal incidence;
        published intermittent systems report a few mW from a few cm^2
        (the paper's Fig. 7 anchor is P_in = 6 mW), which corresponds to
        roughly a tenth of the normal-incidence clear-sky harvest.
    ambient_temp_c:
        Cell temperature, deg C.  Photovoltaic output derates by
        ``temp_coefficient`` per degree above the 25 C standard test
        condition — the "temperature" consideration the paper lists as
        a describer extension.
    temp_coefficient:
        Fractional power loss per Kelvin above 25 C (crystalline
        silicon: ~0.4 %/K).
    name:
        Human-readable label ("brighter", "darker", ...).
    """

    cloudiness: float = 0.0
    panel_efficiency: float = 0.20
    peak_elevation_deg: float = 70.0
    deployment_factor: float = 1.0
    ambient_temp_c: float = 25.0
    temp_coefficient: float = 0.004
    name: str = "custom"

    def __post_init__(self) -> None:
        if not 0.0 <= self.cloudiness <= 1.0:
            raise ConfigurationError(
                f"cloudiness must be in [0, 1], got {self.cloudiness}"
            )
        if not 0.0 < self.panel_efficiency <= 1.0:
            raise ConfigurationError(
                f"panel_efficiency must be in (0, 1], got {self.panel_efficiency}"
            )
        if not 0.0 < self.deployment_factor <= 1.0:
            raise ConfigurationError(
                f"deployment_factor must be in (0, 1], "
                f"got {self.deployment_factor}"
            )
        if self.temp_coefficient < 0:
            raise ConfigurationError(
                f"temp_coefficient must be non-negative, "
                f"got {self.temp_coefficient}"
            )
        # Derived once; not a dataclass field, so equality, hashing and
        # serialization stay defined by the fields alone.
        object.__setattr__(self, "_k_eh", self.k_eh_at(10.0))

    # -- diurnal profile ---------------------------------------------------

    def irradiance_at(self, hour_of_day: float) -> float:
        """Cloud-attenuated GHI at the given hour, W/m^2."""
        clear = haurwitz_ghi(solar_zenith_deg(hour_of_day, self.peak_elevation_deg))
        attenuation = 1.0 - 0.75 * self.cloudiness**3
        return clear * attenuation

    @property
    def temperature_derating(self) -> float:
        """PV output factor for the ambient temperature (1.0 at 25 C).

        Cold deployments gain slightly (clamped at +10 %); hot ones
        lose ``temp_coefficient`` per Kelvin (clamped at -60 %).
        """
        factor = 1.0 - self.temp_coefficient * (self.ambient_temp_c - 25.0)
        return min(max(factor, 0.4), 1.1)

    def k_eh_at(self, hour_of_day: float) -> float:
        """Light coefficient at the given hour, W/cm^2 of panel area."""
        electrical = (self.irradiance_at(hour_of_day) * self.panel_efficiency
                      * self.deployment_factor * self.temperature_derating)
        return irradiance_to_w_per_cm2(electrical)

    # -- the per-inference-constant coefficient the paper uses --------------

    @property
    def k_eh(self) -> float:
        """Representative ``k_eh`` for this environment, W/cm^2.

        The paper treats harvested energy as stable during one inference;
        we therefore characterise an environment by its mid-morning value
        (10:00), which sits between the noon peak and the daily average.
        """
        return self._k_eh

    # -- paper presets -------------------------------------------------------

    @classmethod
    def brighter(cls) -> "LightEnvironment":
        """The paper's brighter environment: near-clear sky, fielded panel.

        Yields k_eh of ~1.6 mW/cm^2, so a 4 cm^2 panel harvests ~6 mW —
        the paper's Fig. 7 operating point.
        """
        return cls(cloudiness=0.15, panel_efficiency=0.18,
                   deployment_factor=0.10, name="brighter")

    @classmethod
    def darker(cls) -> "LightEnvironment":
        """The paper's darker environment: heavy overcast, low sun.

        Yields k_eh of ~0.3 mW/cm^2, a fifth of the brighter preset.
        """
        return cls(
            cloudiness=0.92,
            panel_efficiency=0.18,
            peak_elevation_deg=45.0,
            deployment_factor=0.10,
            name="darker",
        )

    @classmethod
    def indoor(cls) -> "LightEnvironment":
        """Office-lighting scenario for indoor AuT deployments.

        Indoor illuminance (~500 lux) corresponds to a few W/m^2 of
        harvestable irradiance; k_eh lands around 0.03 mW/cm^2.
        """
        return cls(
            cloudiness=0.95,
            panel_efficiency=0.12,
            peak_elevation_deg=30.0,
            deployment_factor=0.02,
            name="indoor",
        )

    @classmethod
    def paper_environments(cls) -> tuple["LightEnvironment", "LightEnvironment"]:
        """The two environments every search in the paper averages over."""
        return cls.brighter(), cls.darker()
