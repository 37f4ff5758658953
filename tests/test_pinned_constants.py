"""Claimed structural constants and default admissible pairs, pinned bit for bit.

The values were recorded with ``float.hex`` before the structural constants
were read off samples by one measurement (``materials.measure_constants``);
any change to how claims are derived shows here first. The moving slab
families were re-recorded when their claims came to be read off the
coefficients' bounds (``lip_M0`` in closed form, the rest at the corners of
the coefficients' ranges). ``PYTHONPATH=src python
tests/test_pinned_constants.py`` prints each pinned constant, its pin and its
value now, marking the pins that moved.
"""

import pytest

from evinc.catalog import catalog_names, make_catalog_problem
from evinc.gallery import Coefficient, SlabGrid, build_thermoplasticity, build_viscoplasticity
from evinc.materials import sinusoidal_family

FAMILY_KEYS = ("c0", "c1", "lip_M0", "sup_M1")

# name -> (c0, c1, lip_M0, sup_M1, c_tilde, rho)
CATALOG = {
    "scalar_ode": (
        "0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x0.0p+0", "0x0.0p+0",
        "0x1.0000000000000p-1", "0x1.35c28f5c28f5cp-1",
    ),
    "degenerate_plane": (
        "0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x0.0p+0", "0x1.0000000000000p+0",
        "0x1.0000000000000p-1", "0x1.d147ae147ae15p+1",
    ),
    "sign_scalar": (
        "0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x0.0p+0", "0x0.0p+0",
        "0x1.0000000000000p-1", "0x1.35c28f5c28f5cp-1",
    ),
    "saturation_plane": (
        "0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x0.0p+0", "0x0.0p+0",
        "0x1.0000000000000p-1", "0x1.35c28f5c28f5cp-1",
    ),
    "thermoplastic_slab": (
        "0x1.ab7146e3b59fcp-3", "0x1.fffffff768fa1p-1", "0x1.19799812dea11p-40",
        "0x1.0000000000000p+0", "0x1.fffffff768fa1p-2", "0x1.109861b7824c8p+4",
    ),
    "viscoplastic_slab": (
        "0x1.8722191372eddp-2", "0x1.0000000000000p+0", "0x1.19799812dea11p-40", "0x0.0p+0",
        "0x1.0000000000000p-1", "0x1.6c0f3717d7173p+0",
    ),
}

# (c0, c1, lip_M0, sup_M1) of time-dependent families
FAMILIES = {
    "thermoplastic": (
        lambda: build_thermoplasticity(
            SlabGrid(m=2, dx=0.5), M=Coefficient(1.0, 0.3, 2.0), C=Coefficient(1.0, 0.2, 1.0),
        ).family,
        ("0x1.9d129b5be3951p-3", "0x1.fffffff768fa1p-1", "0x1.4000000001198p+0",
         "0x1.0000000000000p+0"),
    ),
    "viscoplastic": (
        lambda: build_viscoplasticity(
            SlabGrid(m=2, dx=0.5), M=Coefficient(1.0, 0.3, 2.0), D=Coefficient(1.0, 0.2, 1.0),
        ).family,
        ("0x1.5555554f9b509p-2", "0x1.0000000000000p+0", "0x1.3333333335662p-1", "0x0.0p+0"),
    ),
    "sinusoidal": (
        lambda: sinusoidal_family(
            [[2.0, 0.0], [0.0, 0.0]], [[0.3, 0.1], [-0.1, 1.5]], amplitude=0.4, frequency=2.0
        ),
        ("0x1.3333333333333p+0", "0x1.8000000000000p+0", "0x1.999999999999ap+0",
         "0x1.816af8d7b2ceap+0"),
    ),
}


def test_every_catalog_template_is_pinned():
    assert sorted(CATALOG) == sorted(catalog_names())


def _catalog_now(name):
    tpl = make_catalog_problem(name)
    return [getattr(tpl.family, k) for k in FAMILY_KEYS] + [tpl.c_tilde, tpl.rho]


def _family_now(name):
    family = FAMILIES[name][0]()
    return [getattr(family, k) for k in FAMILY_KEYS]


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_catalog_constants_and_admissible_pair(name):
    got = _catalog_now(name)
    assert [float(v).hex() for v in got] == [float.fromhex(h).hex() for h in CATALOG[name]]


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_time_dependent_family_claims(name):
    got = _family_now(name)
    assert [float(v).hex() for v in got] == [float.fromhex(h).hex() for h in FAMILIES[name][1]]


if __name__ == "__main__":
    # PYTHONPATH=src python tests/test_pinned_constants.py prints each pinned constant, its pin
    # and its value now, marking the pins that moved: the tool of a deliberate re-record.
    # It exits 1 when any pin moved, so a change that must keep its bits checks by exit code.
    pins = [(CATALOG, _catalog_now), ({k: pin for k, (_, pin) in FAMILIES.items()}, _family_now)]
    any_moved = False
    for cases, now in pins:
        for name, pinned in cases.items():
            for key, pin, value in zip(FAMILY_KEYS + ("c_tilde", "rho"), pinned, now(name)):
                moved = float(value).hex() != float.fromhex(pin).hex()
                any_moved |= moved
                print(f"{name:18} {key:7} pin {pin:22} now {float(value).hex()}"
                      f"{'  MOVED' if moved else ''}")
    raise SystemExit(1 if any_moved else 0)
