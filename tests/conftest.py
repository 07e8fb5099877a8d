"""Shared session fixtures: meshes and spectral bases reused across tests."""
import pytest

from ksbench import mesh as meshmod, spectrum
from ksbench.energy import EnergyFunctional


@pytest.fixture(scope="session")
def square24():
    return meshmod.build_builtin("unit_square", 24)


@pytest.fixture(scope="session")
def square48():
    return meshmod.build_builtin("unit_square", 48)


@pytest.fixture(scope="session")
def square48_basis(square48):
    return spectrum.eigenpairs(square48, 8)


@pytest.fixture(scope="session")
def square48_basis40(square48):
    return spectrum.eigenpairs(square48, 40)


@pytest.fixture(scope="session")
def square64():
    return meshmod.build_builtin("unit_square", 64)


@pytest.fixture(scope="session")
def square64_basis(square64):
    return spectrum.eigenpairs(square64, 8)


@pytest.fixture(scope="session")
def square256():
    return meshmod.build_builtin("unit_square", 256)


@pytest.fixture(scope="session")
def disk128():
    return meshmod.build_builtin("disk", 128)


@pytest.fixture(scope="session")
def disk128_basis(disk128):
    return spectrum.eigenpairs(disk128, 8)


@pytest.fixture(scope="session")
def disk128_basis40(disk128):
    return spectrum.eigenpairs(disk128, 40)


@pytest.fixture(scope="session")
def disk256():
    return meshmod.build_builtin("disk", 256)


@pytest.fixture(scope="session")
def disk256_basis(disk256):
    return spectrum.eigenpairs(disk256, 8)


@pytest.fixture(scope="session")
def square64_model(square64):
    return EnergyFunctional.for_mesh(square64)
