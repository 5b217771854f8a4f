"""Exit code and exact stdout of one command per payload shape, with
``runtime_ms`` set to 0.

A change that claims to leave every payload byte-identical keeps these
passing; the expected texts are literals, not computed by the package.
"""

import re

import pytest

from dla_lab.cli import main

EXPECTED = {
    "compute --graph complete:7": """\
{
  "schema": "dla-lab/1",
  "command": "compute",
  "graph": "complete:7",
  "n": 7,
  "dim": 54,
  "degree": 12,
  "center_dim": 2,
  "ideal_dim": 52,
  "aut_bound": 119,
  "yz_even_ok": true,
  "runtime_ms": 0
}
""",
    "compute --graph cycle:12": """\
{
  "schema": "dla-lab/1",
  "command": "compute",
  "graph": "cycle:12",
  "n": 12,
  "dim": 35,
  "degree": 22,
  "center_dim": 2,
  "ideal_dim": 33,
  "aut_bound": 704369,
  "yz_even_ok": true,
  "runtime_ms": 0
}
""",
    "compute --graph complete:16 --orbit-compress": """\
{
  "schema": "dla-lab/1",
  "command": "compute",
  "graph": "complete:16",
  "n": 16,
  "dim": 473,
  "degree": 30,
  "center_dim": 1,
  "ideal_dim": 472,
  "aut_bound": 968,
  "yz_even_ok": true,
  "runtime_ms": 0
}
""",
    "verify-complete --n 15": """\
{
  "schema": "dla-lab/1",
  "command": "verify-complete",
  "n": 15,
  "tolerance": 1e-09,
  "checks": [
    {
      "name": "dimension-formula",
      "status": "ok",
      "residual": 0.0
    },
    {
      "name": "center-dimension-formula",
      "status": "ok",
      "residual": 0.0
    },
    {
      "name": "ideal-dimension-formula",
      "status": "ok",
      "residual": 0.0
    },
    {
      "name": "explicit-basis-spans-closure",
      "status": "ok",
      "residual": 0.0
    },
    {
      "name": "ideal-spanning-set-dimension",
      "status": "ok",
      "residual": 0.0
    },
    {
      "name": "odd-yz-pairs-in-span",
      "status": "ok",
      "residual": null
    },
    {
      "name": "y-and-xy-chains-in-ideal",
      "status": "ok",
      "residual": null
    },
    {
      "name": "x-with-even-z-in-span",
      "status": "ok",
      "residual": null
    },
    {
      "name": "x-with-even-pairs-in-span",
      "status": "ok",
      "residual": null
    },
    {
      "name": "squares-in-span",
      "status": "ok",
      "residual": null
    },
    {
      "name": "ideal-spanners-independent",
      "status": "ok",
      "residual": null
    },
    {
      "name": "ideal-spanners-inside-ideal",
      "status": "ok",
      "residual": null
    },
    {
      "name": "all-x-outside-span",
      "status": "ok",
      "residual": null
    },
    {
      "name": "identity-outside-span",
      "status": "ok",
      "residual": null
    },
    {
      "name": "dimension-below-parity-bound",
      "status": "ok",
      "residual": 0.0
    }
  ],
  "ok": true,
  "note": "the commutator ideal may decompose as a direct sum of su(floor((j+1)/2)+1) blocks; unverified"
}
""",
    "sweep --family cycle --min 3 --max 12 --output csv": """\
n,dim,degree,center_dim,ideal_dim,aut_bound,yz_even_ok,runtime_ms
3,8,4,2,6,19,True,0
4,11,6,2,9,54,True,0
5,14,8,2,12,135,True,0
6,17,10,2,15,429,True,0
7,20,12,2,18,1299,True,0
8,23,14,2,21,4434,True,0
9,26,16,2,24,15083,True,0
10,29,18,2,27,53763,True,0
11,32,20,2,30,192699,True,0
12,35,22,2,33,704369,True,0
""",
    "sweep --family cycle --min 3 --max 5 --output text": """\
schema: dla-lab/1
command: sweep
family: cycle
  n=3  dim=8  degree=4  center_dim=2  ideal_dim=6  aut_bound=19  yz_even_ok=True  runtime_ms=0
  n=4  dim=11  degree=6  center_dim=2  ideal_dim=9  aut_bound=54  yz_even_ok=True  runtime_ms=0
  n=5  dim=14  degree=8  center_dim=2  ideal_dim=12  aut_bound=135  yz_even_ok=True  runtime_ms=0
""",
    "bounds --graph complete:12": """\
{
  "schema": "dla-lab/1",
  "command": "bounds",
  "graph": "complete:12",
  "n": 12,
  "aut_bound": 454,
  "center_bound": 2,
  "binom_bound": 455,
  "yz_bound": 229,
  "dim_formula": 219
}
""",
    "variance --family cycle --n 8": """\
{
  "schema": "dla-lab/1",
  "command": "variance",
  "family": "cycle",
  "n": 8,
  "expectation": 0.0,
  "variance": 0.666666666667,
  "per_component_purities": [
    [
      0.015625,
      32.0
    ],
    [
      0.0,
      32.0
    ],
    [
      0.015625,
      32.0
    ],
    [
      0.0,
      32.0
    ],
    [
      0.015625,
      32.0
    ],
    [
      0.0,
      32.0
    ],
    [
      0.015625,
      32.0
    ]
  ]
}
""",
    "verify-cycle --n 8 --output text": """\
schema: dla-lab/1
command: verify-cycle
n: 8
tolerance: 1e-09
  dimension-3n-minus-1               ok   residual=0.000e+00
  center-dimension-2                 ok   residual=0.000e+00
  center-commutes                    ok   residual=0.000e+00
  closure-span-in-orbit-basis        ok   residual=0.000e+00
  bracket-table-homomorphism         ok   residual=0.000e+00
  canonical-bracket-relations        ok   residual=1.472e-16
  su2-bracket-relations              ok   residual=2.498e-16
  alternating-power-eigenvalue       ok   residual=1.887e-15
  power-recursion-identity           ok   residual=1.269e-16
  power-trig-closed-form             ok   residual=7.648e-16
  spectral-closed-forms              ok   residual=5.684e-14
ok: True
""",
    "verify-complete --n 3": """\
{
  "schema": "dla-lab/1",
  "command": "verify-complete",
  "n": 3,
  "tolerance": 1e-09,
  "checks": [
    {
      "name": "dimension-formula",
      "status": "ok",
      "residual": 0.0
    },
    {
      "name": "center-dimension-formula",
      "status": "ok",
      "residual": 0.0
    },
    {
      "name": "ideal-dimension-formula",
      "status": "ok",
      "residual": 0.0
    },
    {
      "name": "explicit-basis-spans-closure",
      "status": "ok",
      "residual": 0.0
    },
    {
      "name": "ideal-spanning-set-dimension",
      "status": "ok",
      "residual": 0.0
    },
    {
      "name": "odd-yz-pairs-in-span",
      "status": "ok",
      "residual": null
    },
    {
      "name": "y-and-xy-chains-in-ideal",
      "status": "ok",
      "residual": null
    },
    {
      "name": "x-with-even-z-in-span",
      "status": "ok",
      "residual": null
    },
    {
      "name": "x-with-even-pairs-in-span",
      "status": "ok",
      "residual": null
    },
    {
      "name": "squares-in-span",
      "status": "ok",
      "residual": null
    },
    {
      "name": "ideal-spanners-independent",
      "status": "ok",
      "residual": null
    },
    {
      "name": "ideal-spanners-inside-ideal",
      "status": "ok",
      "residual": null
    },
    {
      "name": "all-x-outside-span",
      "status": "ok",
      "residual": null
    },
    {
      "name": "identity-outside-span",
      "status": "ok",
      "residual": null
    },
    {
      "name": "dimension-below-parity-bound",
      "status": "fail",
      "residual": 1.0
    }
  ],
  "ok": false,
  "note": "the commutator ideal may decompose as a direct sum of su(floor((j+1)/2)+1) blocks; unverified"
}
""",
    "verify-cycle --n 10": """\
{
  "schema": "dla-lab/1",
  "command": "verify-cycle",
  "n": 10,
  "tolerance": 1e-09,
  "checks": [
    {
      "name": "dimension-3n-minus-1",
      "status": "ok",
      "residual": 0.0
    },
    {
      "name": "center-dimension-2",
      "status": "ok",
      "residual": 0.0
    },
    {
      "name": "center-commutes",
      "status": "ok",
      "residual": 0.0
    },
    {
      "name": "closure-span-in-orbit-basis",
      "status": "ok",
      "residual": 0.0
    },
    {
      "name": "bracket-table-homomorphism",
      "status": "skip",
      "residual": null
    },
    {
      "name": "canonical-bracket-relations",
      "status": "ok",
      "residual": 1.43762428039e-16
    },
    {
      "name": "su2-bracket-relations",
      "status": "ok",
      "residual": 2.671474153e-16
    },
    {
      "name": "alternating-power-eigenvalue",
      "status": "ok",
      "residual": 1.7763568394e-15
    },
    {
      "name": "power-recursion-identity",
      "status": "ok",
      "residual": 2.96059473233e-16
    },
    {
      "name": "power-trig-closed-form",
      "status": "ok",
      "residual": 9.43689570931e-16
    },
    {
      "name": "spectral-closed-forms",
      "status": "ok",
      "residual": 3.12638803734e-13
    }
  ],
  "ok": true
}
""",
    "verify-cycle --n 13": """\
{
  "schema": "dla-lab/1",
  "command": "verify-cycle",
  "n": 13,
  "tolerance": 1e-09,
  "checks": [
    {
      "name": "dimension-3n-minus-1",
      "status": "ok",
      "residual": 0.0
    },
    {
      "name": "center-dimension-2",
      "status": "ok",
      "residual": 0.0
    },
    {
      "name": "center-commutes",
      "status": "ok",
      "residual": 0.0
    },
    {
      "name": "closure-span-in-orbit-basis",
      "status": "ok",
      "residual": 0.0
    },
    {
      "name": "bracket-table-homomorphism",
      "status": "skip",
      "residual": null
    },
    {
      "name": "canonical-bracket-relations",
      "status": "ok",
      "residual": 2.01407297419e-16
    },
    {
      "name": "su2-bracket-relations",
      "status": "ok",
      "residual": 2.98372437868e-16
    },
    {
      "name": "alternating-power-eigenvalue",
      "status": "ok",
      "residual": 1.94289029309e-15
    },
    {
      "name": "power-recursion-identity",
      "status": "ok",
      "residual": 3.47643248368e-16
    },
    {
      "name": "power-trig-closed-form",
      "status": "ok",
      "residual": 1.14865382163e-15
    },
    {
      "name": "spectral-closed-forms",
      "status": "skip",
      "residual": null
    }
  ],
  "ok": true
}
""",
}


def _normalised(out: str) -> str:
    out = re.sub(r'(runtime_ms"?(: |=))\d+', r"\g<1>0", out)  # json and text
    return re.sub(r"(?m)^(\d+,.*,)\d+$", r"\g<1>0", out)  # csv: last column


#: commands whose exit code is not 0: K_3 fails the strict parity bound
EXIT_CODE = {"verify-complete --n 3": 1}


@pytest.mark.parametrize("command", EXPECTED)
def test_stdout_is_pinned(capsys, command):
    assert main(command.split()) == EXIT_CODE.get(command, 0)
    captured = capsys.readouterr()
    assert captured.err == ""
    assert _normalised(captured.out) == EXPECTED[command]
