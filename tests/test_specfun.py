"""Special-function accuracy, identity, and error-contract tests.

Reference values were computed with 50-digit arithmetic (direct series
summation for M and the Kummer representation of D) in an offline
script and frozen here as double literals.
"""

import math
from fractions import Fraction

import pytest

from greenwell import specfun as sf

EPS = 2.220446049250313e-16

# (x, Gamma(x)), 50-digit values rounded to double
GAMMA_REF = (
    (0.5, 1.772453850905516),
    (1.0, 1.0),
    (2.0, 1.0),
    (3.7, 4.170651783796604),
    (5.0, 24.0),
    (12.25, 73711509.04676995),
    (24.5, 1.2599063430729375e+23),
    (49.5, 8.667601843135272e+61),
    (-0.5, -3.544907701811032),
    (-1.5, 2.363271801207355),
    (-3.25, 0.5362507279163854),
    (-7.75, 0.0001874782417004247),
    (-12.5, -1.836606483859281e-09),
    (-20.25, -8.569032663885128e-19),
    (-49.25, 2.751903181805172e-63),
    (0.001, 999.4237724845955),
    (-4.001, -41.60402283044254),
)

# (a, b, z, M(a,b,z))
KUMMER_REF = (
    (0.5, 1.5, 2.0, 2.3644538928052095),
    (1.0, 1.0, 1.0, 2.718281828459045),
    (-2.3, 0.5, -3.1, 36.491883041011725),
    (1.7, 1.5, -12.0, -0.0027527262829075945),
    (3.2, 1.5, 37.0, 2.1884098290801364e+18),
    (-0.5, 0.5, 2.0, -2.068759472290187),
    (2.25, 2.5, -0.75, 0.5132046604140148),
    (-6.0, 0.5, 4.5, -6.503896103896104),
    (0.31, 1.5, 150.0, 1.10565815104979e+62),
    (4.0, 0.5, -60.0, 7.027740171918182e-07),
)

# (nu, z, D_nu(z))
PCF_REF = (
    (0.0, 0.7, 0.8847059049434836),
    (1.0, 1.0, 0.7788007830714049),
    (0.7, 0.0, 0.36318340655588127),
    (2.4, 1.3, -0.026606677878274893),
    (-1.3, 2.2, 0.08627965275661216),
    (5.5, -3.0, -10.65086277708061),
    (-0.5, 6.0, 4.98857753526681e-05),
    (3.25, -6.0, 27.428154411981655),
    (7.5, 6.0, 36.775803863652264),
    (-4.8, 4.4, 3.6670191775286657e-06),
    (0.25, 9.5, 2.7932302453224493e-10),
    (-50.2, 0.5, 3.403992955517033e-34),
    (-50.2, -0.5, 3.9301275997883314e-31),
    (-31.7, 3.5, 2.0156275252763933e-26),
    (-12.25, 6.0, 6.549721756812908e-15),
    (11.5, 4.0, 1827.5961682601073),
    (59.0, 1.0, -3.751323096304304e+39),
    (-0.25, -9.5, 809890613.2859545),
)

# (x, Ai, Ai', Bi, Bi')
AIRY_REF = (
    (-24.5, -0.012926044703241093, -1.253717418758719, 0.2532598321256829, -0.06139721733392834),
    (-15.0, 0.2782174908708289, 0.272374204308642, -0.06912659453101005, 1.0764297530843747),
    (-12.0, -0.06655517505437313, 1.0231104533679707, -0.2957199120780731, -0.23673219783112331),
    (-8.5, -0.33029023763020887, -0.03231334828463914, 0.007754436447658404, -0.9629691651201748),
    (-7.2, 0.30585152336862664, -0.41412428115703476, 0.15821739009049754, 0.826506340272005),
    (-6.999, 0.1835091830297065, -0.7722953423417054, 0.2942592877455372, 0.4961866611459146),
    (-5.5, 0.017781541276574976, 0.8641972177713984, -0.367813453915712, 0.025111583073630928),
    (-3.3, -0.41718093737455014, -0.07096361717783588, 0.02196799998977732, -0.7592651750479446),
    (-1.0, 0.5355608832923521, -0.01016056711664521, 0.1039973894969446, 0.5923756264227924),
    (-0.2, 0.40628418744480144, -0.2510326740055478, 0.5245090328184855, 0.4593852945868341),
    (0.0, 0.3550280538878172, -0.2588194037928068, 0.6149266274460007, 0.4482883573538264),
    (0.6, 0.20980006166637946, -0.21279325938915852, 0.9110633416949405, 0.5931444786342857),
    (1.5, 0.07174949700810541, -0.09738201284230132, 1.878941503747895, 1.8862122548481655),
    (2.7, 0.011198535451065878, -0.019325560692377633, 8.734387649988916, 13.351116152330935),
    (3.999, 0.0009535243964303462, -0.0019624506489942673, 83.68531229725009, 161.5916607184783),
    (4.3, 0.0005077871681561495, -0.0010807033052246406, 151.46210883707218, 304.50608885753496),
    (5.2, 6.832855592524807e-05, -0.00015894345264594746, 1022.6151169136378, 2279.7482935833364),
    (6.1, 7.747731032448435e-06, -1.9440985375102972e-05, 8323.089424015487, 20199.56884930401),
    (6.999, 7.512236617588954e-07, -2.0134020443176957e-06, 80118.51892813898, 208991.1492119086),
    (7.001, 7.472073555334674e-07, -2.002913053009717e-06, 80537.62478561942, 210115.73973356397),
    (8.5, 1.0997009755195506e-08, -3.237725440447602e-08, 4965319.541471302, 14326301.030662058),
    (11.0, 4.2262758649603595e-12, -1.4111441246628517e-11, 11355782530.430477, 37400168196.92698),
    (15.0, 2.1649625207379925e-18, -8.420567954017772e-18, 1.8982099567493588e+16, 7.319749203407011e+16),
    (24.5, 9.813303797462995e-37, -4.867300156198382e-36, 3.276622891563338e+34, 1.6184846443432987e+35),
)


# (x, Ai, Ai', Bi, Bi') on the K-integral window 4 < x <= 7, at the
# double nearest x, to 30 digits (mpmath at 40-digit precision, offline)
AIRY_K_REF = (
    (4.0000001, "9.51563655340725335215321444055e-4", "-1.95864056957867176582221057006e-3",
     "8.38470876011382127347941958248e+1", "1.61926717043445717053056638263e+2"),
    (4.001, "9.49607112235603814797573168296e-4", "-1.95483813441538118055315270078e-3",
     "8.40091659081106834079429813537e+1", "1.62262437844881780805696587344e+2"),
    (4.25, "5.64639835342501337781926793964e-4", "-1.19520513454491430440770813207e-3",
     "1.37021345991334303983063373995e+2", "2.73698843474177624091551516851e+2"),
    (4.5, "3.30250323514308983658732590099e-4", "-7.17866567557508888693554298467e-4",
     "2.27588081835599718461410886054e+2", "4.69135077327966397950919677145e+2"),
    (4.875, "1.43894369532053183220517060363e-4", "-3.24710548455274689346343197097e-4",
     "5.01643260107325039959617715113e+2", "1.08010500043108591621505149e+3"),
    (5.0, "1.08344428136074417349865025033e-4", "-2.47413890868462476000236172063e-4",
     "6.57792044171171182441080578874e+2", "1.435819080217982518671721238e+3"),
    (5.3, "5.40905310134005896714669234618e-5", "-1.26960123336596768223497254391e-4",
     "1.27946559546844052818949271863e+3", "2.88162777214314504718804327782e+3"),
    (5.75, "1.84212461977302458206321016737e-5", "-4.4940621222983480628743454436e-5",
     "3.60604590665499942203858349353e+3", "8.48215920372264030033218682074e+3"),
    (6.0, "9.94769436025288957023884766883e-6", "-2.4765200397034954754181825387e-5",
     "6.53644610480986345375835002462e+3", "1.57256026219304768394203229573e+4"),
    (6.2, "6.02246071968819551183805946963e-6", "-1.52296516969415600413933252854e-5",
     "1.06203661136178557337858229298e+4", "2.59969166536126132175505422495e+4"),
    (6.5, "2.79588234320491358545999574881e-6", "-7.23193146660179255981424883776e-6",
     "2.234060771839699815794499069e+4", "5.60624958425228607482191003315e+4"),
    (6.8, "1.27587941687666874760429567707e-6", "-3.37246477537639339355686792044e-6",
     "4.78601855742919603955608910943e+4", "1.2297643030844541717265415621e+5"),
    (6.999, "7.51223661758895410082366961905e-7", "-2.0134020443176957811209639263e-6",
     "8.01185189281389687959162382824e+4", "2.08991149211908600027617062266e+5"),
    (7.0, "7.4921288639971670807710402721e-7", "-2.00815089473879199116930531207e-6",
     "8.03277907094302470053912113986e+4", "2.0955267087397131950596281237e+5"),
)


# ----------------------------------------------------------------------
# Gamma / rgamma
# ----------------------------------------------------------------------


def test_gamma_trivial_values():
    assert sf.gamma(1.0) == pytest.approx(1.0, rel=1e-14)
    assert sf.gamma(0.5) == pytest.approx(1.7724538509055160, rel=1e-13)
    assert sf.gamma(5.0) == pytest.approx(24.0, rel=1e-13)


@pytest.mark.parametrize("x,ref", GAMMA_REF)
def test_gamma_reference_grid(x, ref):
    assert sf.gamma(x) == pytest.approx(ref, rel=1e-12)


def test_gamma_pole_error():
    for x in (0.0, -1.0, -3.0, -17.0, -3.0 + 5e-13):
        with pytest.raises(sf.PoleError):
            sf.gamma(x)


def test_rgamma_exact_zeros():
    for n in range(0, 51):
        assert sf.rgamma(-float(n)) == 0.0


def test_rgamma_trivial():
    assert sf.rgamma(2.0) == pytest.approx(1.0, rel=1e-14)


def test_rgamma_total_function():
    # finite everywhere, including at and near the Gamma poles
    for x in (-50.0, -12.0000001, -0.9999999, 0.0, 1e-15, 50.0):
        assert math.isfinite(sf.rgamma(x))


# 1/Gamma(x) to 30 digits from 40-digit mpmath (offline), on both sides
# of the reflection where t ** (x - 1/2) alone leaves the float range
RGAMMA_FAR_REF = [
    (-170.5, "-3.01864965083505375224191149309e+307"),
    (-170.00000095367432, "-6.92124479452596105380441582451e+300"),
    (-169.75, "4.5213227622491785725137806522e+305"),
    (-163.3, "2.3821411695551879090808367979e+291"),
    (-157.5, "4.68939839764575392255218812871e+278"),
    (-150.01, "-6.00616815868882198311547967303e+260"),
    (-145.3, "9.23602562074805514358967589899e+251"),
    (-141.58, "1.03578815226297545012296728135e+244"),
    (-141.001, "1.90756412349340442594615271093e+240"),
    (141.0, "7.42830985934515744800244008536e-242"),
    (141.25, "2.15711929228931741871715775115e-242"),
    (145.3, "4.05124266017633391484939381612e-251"),
    (150.0, "2.62541431038902279890883851905e-261"),
    (155.5, "2.60170642808321035229468596989e-273"),
    (162.7, "3.74402503503422350404890007548e-289"),
    (168.125, "3.50623265079419756682087366405e-301"),
    (171.5, "1.05447774005749926026926958214e-308"),
]


@pytest.mark.parametrize("x,ref", RGAMMA_FAR_REF)
def test_rgamma_far_orders_reference(x, ref):
    ref = float(ref)
    assert abs(sf.rgamma(x) - ref) <= 20 * EPS * abs(ref)
    assert abs(sf.gamma(x) - 1.0 / ref) <= 20 * EPS / abs(ref)


# 1/Gamma(x) to 30 digits from 50-digit mpmath (offline) below x = -170.62,
# where the reflection's Gamma(1 - x) exceeds the float range but 1/Gamma
# does not: down to -171.09, and next to the integers below it
RGAMMA_PAST_GAMMA_REF = [
    (-170.7, "-6.8299964229285652827471888974e+307"),
    (-170.9, "-7.29788115606773257481688469606e+307"),
    (-170.95, "-4.77804903724926438841026339872e+307"),
    (-171.05, "7.99239751234701973510525702683e+307"),
    (-171.9999999999991, "1.94136289861889041591371637345e+299"),
    (-175.00000000000003, "3.19587767048091529821251381321e+304"),
    (-175.99999999999997, "5.62474470004475776831950454963e+306"),
]


@pytest.mark.parametrize("x,ref", RGAMMA_PAST_GAMMA_REF)
def test_rgamma_past_the_gamma_range_reference(x, ref):
    ref = float(ref)
    assert abs(sf.rgamma(x) - ref) <= 20 * EPS * abs(ref)


def test_rgamma_past_the_float_range():
    # |1/Gamma| above the float range: +-inf, exactly 0 at the integers,
    # never an exception (1/Gamma(-171.1) is 2.04e308)
    for x in (-171.1, -171.5, -172.5, -300.5, -1e5 - 0.25):
        assert math.isinf(sf.rgamma(x)), x
    for x in (-171.0, -300.0, -1e300):
        assert sf.rgamma(x) == 0.0, x
    # 1/Gamma below it: an error that names rgamma, never 0.0
    for x in (171.63, 172.0, 200.5, 1e300):
        with pytest.raises(OverflowError, match=r"^rgamma\("):
            sf.rgamma(x)
    for i in range(2001):
        x = 140.0 + 40.0 * i / 2000
        try:
            assert sf.rgamma(x) > 0.0, x
        except OverflowError:
            assert x > 171.6
        assert sf.rgamma(-x) != 0.0 or x == round(x), x


def test_gamma_recurrence_200_point_grid():
    # |Gamma(x+1) - x Gamma(x)| / |Gamma(x+1)| <= 1e-11 away from poles
    worst = 0.0
    for i in range(200):
        x = -20.0 + 40.0 * i / 199.0 + 0.0137  # offset avoids integers
        g1 = sf.gamma(x + 1.0)
        worst = max(worst, abs(g1 - x * sf.gamma(x)) / abs(g1))
    assert worst <= 1e-11


def test_rgamma_gamma_product():
    for i in range(120):
        x = -18.0 + 36.0 * i / 119.0 + 0.0261
        assert sf.rgamma(x) * sf.gamma(x) == pytest.approx(1.0, rel=1e-11)


# ----------------------------------------------------------------------
# Kummer M
# ----------------------------------------------------------------------


def test_kummer_empty_product():
    for a, b in ((0.3, 0.5), (-4.0, 1.5), (7.7, 2.5)):
        r = sf.kummer_m(a, b, 0.0)
        assert r.value == 1.0


def test_kummer_exponential():
    r = sf.kummer_m(1.0, 1.0, 1.0)
    assert r.value == pytest.approx(math.e, rel=1e-14)


@pytest.mark.parametrize("a,b,z,ref", KUMMER_REF)
def test_kummer_reference_and_error_bound(a, b, z, ref):
    r = sf.kummer_m(a, b, z)
    assert abs(r.value - ref) <= max(r.est_abs_error, 4.0 * EPS * abs(ref))
    assert r.est_abs_error >= 0.0


def test_kummer_bad_b():
    with pytest.raises(sf.PoleError):
        sf.kummer_m(1.0, 0.0, 1.0)
    with pytest.raises(sf.PoleError):
        sf.kummer_m(1.0, -3.0, 1.0)


def test_kummer_domain():
    with pytest.raises(sf.DomainError):
        sf.kummer_m(1.0, 1.5, 201.0)
    # non-finite arguments fail at once, not after the term budget
    for a, b, z in ((0.5, 0.5, math.nan), (0.5, math.nan, 1.0), (math.nan, 0.5, 1.0),
                    (0.5, 0.5, math.inf), (0.5, -math.inf, 1.0), (math.inf, 1.5, 1.0)):
        with pytest.raises(sf.DomainError, match="kummer_m arguments must be finite"):
            sf.kummer_m(a, b, z)


# ----------------------------------------------------------------------
# Parabolic cylinder D
# ----------------------------------------------------------------------


def test_pcf_d0_is_gaussian():
    for z in (0.0, 1.0, 2.0):
        assert sf.pcf_d(0.0, z).value == pytest.approx(math.exp(-z * z / 4.0), rel=1e-13)


def test_pcf_d1():
    assert sf.pcf_d(1.0, 1.0).value == pytest.approx(math.exp(-0.25), rel=1e-13)


def test_pcf_origin_value():
    nu = 0.7
    expect = 2.0 ** (nu / 2.0) * math.sqrt(math.pi) * sf.rgamma((1.0 - nu) / 2.0)
    assert sf.pcf_d(nu, 0.0).value == pytest.approx(expect, rel=1e-13)


@pytest.mark.parametrize("nu,z,ref", PCF_REF)
def test_pcf_reference_and_error_bound(nu, z, ref):
    r = sf.pcf_d(nu, z)
    assert abs(r.value - ref) <= max(r.est_abs_error, 8.0 * EPS * abs(ref))
    # within the moderate window the claimed accuracy is much tighter
    if abs(nu) <= 10.0 and abs(z) <= 6.0:
        assert r.value == pytest.approx(ref, rel=1e-10)


# (nu, z, D_nu(z)) for z in [7, 10], 30 digits from 50-digit mpmath
# pcfd in an offline script
PCF_TAIL_REF = (
    (0.5, 7.0, "1.2691939623820819504216972736e-5"),
    (4.25, 7.3, "6.66510365390363013534400584384e-3"),
    (-2.5, 7.5, "4.71449745460333485454708634032e-9"),
    (1.3, 7.9, "2.45178741671140992602887458326e-6"),
    (3.0, 8.0, "5.49171652629984478827222873813e-5"),
    (-4.0, 8.75, "7.3485316829842195447686133751e-13"),
    (6.5, 9.0, "2.02172113634276147171768176932e-3"),
    (1.8, 9.5, "9.07103636753136834462312078048e-9"),
    (-1.25, 9.9, "1.28259689581255800821637569642e-12"),
    (9.5, 10.0, "2.82587124225257850244046091004e-2"),
)


@pytest.mark.parametrize("nu,z,ref", PCF_TAIL_REF)
def test_pcf_error_bound_holds_where_accuracy_is_lost(nu, z, ref):
    # above z = 7 the Kummer terms cancel, so these points take the
    # integral route; its estimate must cover the 30-digit reference
    r = sf.pcf_d(nu, z)
    assert abs(Fraction(r.value) - Fraction(ref)) <= Fraction(r.est_abs_error)


# (nu, z, D_nu(z)) on the integral route, 30 digits from 50-digit mpmath
# pcfd in an offline script: z > 0 with strongly negative nu below
# z = 7, where the Kummer terms cancel, then z in [7, 20] below the
# turning point nu = z^2/4 - 1/2, integer orders included.  The first
# tail point is the oscillator Green function's D at x = 9 (HO,
# E = 2.3), where the Kummer form gave 0.0
PCF_INTEGRAL_REF = (
    (-60.0, 1.25, "2.19555077325750044647557890747e-45"),
    (-47.5, 2.0, "2.3175191616735717929751397511e-36"),
    (-31.7, 3.5, "2.01562752527639332102568671454e-26"),
    (-20.25, 1.6, "8.17231111642053242964373104184e-13"),
    (-12.25, 6.0, "6.54972175681290788449178054708e-15"),
    (-8.6, 2.75, "1.41481828188158114850677349139e-6"),
    (-4.0, 4.4, "1.3920348356977214343890334456e-5"),
    (-3.3, 5.1, "5.48619380600449075648881410635e-6"),
    (-1.5, 4.75, "3.18464344405987224640399255714e-4"),
    (-0.5, 6.0, "4.98857753526680957959395352443e-5"),
    (0.25, 6.5, "4.13932787823655959067495000874e-5"),
    (0.9, 6.9, "3.85637833119703741247313799381e-5"),
    (1.8, 12.7, "2.97211175834418588609360624981e-16"),
    (-60.0, 7.0, "1.91592978467396089901980681552e-65"),
    (-60.0, 20.0, "5.85340672969657232203087699907e-124"),
    (-45.0, 13.0, "2.38680947599687913618260573808e-71"),
    (-33.3, 9.1, "7.08183242789475015419031799741e-44"),
    (-17.0, 17.5, "2.5859774976637648516583506583e-55"),
    (-9.5, 7.75, "5.2578547977183053519711506351e-16"),
    (-4.0, 11.0, "4.59875489714009838129231641606e-18"),
    (-2.5, 19.0, "4.00712507374440104213566432163e-43"),
    (-1.0, 8.0, "1.38566769987568047035778464379e-8"),
    (-0.25, 15.5, "4.14308966825626686024760650497e-27"),
    (0.0, 7.0, "4.78511739212900908960977101943e-6"),
    (0.0, 20.0, "3.72007597602083596295969580386e-44"),
    (0.5, 10.0, "4.39719298311774584835123612464e-11"),
    (1.0, 14.0, "7.34003992870884951204052742397e-21"),
    (2.0, 7.5, "4.31584789808823116449883457328e-5"),
    (3.0, 18.0, "3.83640548591774833672576309525e-32"),
    (4.75, 9.25, "1.78778842994021915052119288846e-5"),
    (7.0, 12.0, "7.14100267256589328703857166174e-9"),
    (10.0, 7.0, "4.29921283794996454676571040566e+2"),
    (12.5, 16.0, "1.34612236483418059552957169056e-13"),
    (20.0, 11.0, "7.33968741252187317882277305239e+6"),
    (25.0, 20.0, "5.61496732692475092299550799749e-12"),
    (33.0, 14.5, "1.52679237573851073337777717921e+14"),
    (40.0, 19.0, "7.83112846077013572171321163515e+10"),
    (50.0, 16.0, "5.29640727372380559052884612133e+29"),
    (57.5, 18.5, "1.44917823403008246138235334937e+33"),
    (60.0, 20.0, "2.13429864097242418337580805574e+32"),
)


@pytest.mark.parametrize("nu,z,ref", PCF_INTEGRAL_REF)
def test_pcf_integral_route_within_its_estimate(nu, z, ref):
    assert sf._pcf_takes_integral(nu, z)
    r = sf.pcf_d(nu, z)
    assert abs(Fraction(r.value) - Fraction(ref)) <= Fraction(r.est_abs_error)
    assert r.est_abs_error <= 100.0 * EPS * abs(r.value)


# (nu, z, D_nu(z)) for z in [6, 7), where the Kummer terms lost up to
# 2e7 eps before the integral route took over at z = 6; 30 digits from
# 50-digit mpmath pcfd in an offline script.  (1.8, sqrt(2) x) at
# x = 4.3 and 4.7 are the oscillator Green function's D (HO, E = 2.3);
# the last three points lie beyond the turning point nu = z^2/4 - 1/2
PCF_CUT_REF = (
    (-10.0, 6.0, "6.13825158771618004386089265431e-13"),
    (-9.5, 6.93, "2.65165455881141562575714456688e-14"),
    (-7.25, 6.41, "2.65001402020062815243169532478e-11"),
    (-6.0, 6.75, "7.99959500245162318414327843254e-11"),
    (-4.0, 6.2, "3.60511316994545920231771141139e-8"),
    (-3.5, 6.99, "4.73704836279673306136337875167e-9"),
    (-2.2, 6.05, "1.85306831870219695089846360484e-6"),
    (-1.0, 6.5, "3.89151910182409783280113967854e-6"),
    (-0.5, 6.88, "2.74556726609290320347667910945e-6"),
    (0.0, 6.3, "4.90583574562077232417842856354e-5"),
    (0.5, 6.0, "3.03315118629607059399589308735e-4"),
    (1.0, 6.62, "1.1552719166368544480071863518e-4"),
    (1.5, 6.13, "1.25024711839804865966234164297e-3"),
    (1.8, 6.081118318204309, "2.44113726744093688487069513195e-3"),
    (1.8, 6.646803743153548, "4.75109948665454987268981732864e-4"),
    (2.0, 6.95, "2.69467747048732872757481855268e-4"),
    (3.0, 6.37, "9.40761293749897138976807360577e-3"),
    (3.7, 6.58, "1.87819288626090933669460171258e-2"),
    (4.5, 6.02, "2.95216167472922032391023074147e-1"),
    (5.0, 6.82, "1.04134081558735054576748629287e-1"),
    (6.25, 6.25, "3.33545028246805286349960416576"),
    (7.0, 6.7, "4.72523210863463196813802166873"),
    (8.0, 6.0, "7.77966766276141812464636863794e+1"),
    (9.5, 6.45, "4.27365978770142150691040743521e+2"),
    (10.0, 6.9, "5.04503147046707665212814800048e+2"),
    (11.0, 6.66, "3.28880302410946116077008280416e+3"),
    (12.0, 6.99, "1.08764961618027891379441313785e+4"),
    (12.0, 6.1, "1.35626929607149613266642355404e+4"),
)


@pytest.mark.parametrize("nu,z,ref", PCF_CUT_REF)
def test_pcf_below_z_seven_within_its_estimate(nu, z, ref):
    r = sf.pcf_d(nu, z)
    assert abs(Fraction(r.value) - Fraction(ref)) <= Fraction(r.est_abs_error)
    if nu < z * z / 4.0 - 0.5:
        assert r.est_abs_error <= 100.0 * EPS * abs(r.value)


# (nu, z, D_nu(z)) beyond the turning point, where D oscillates in nu and
# the recurrence's terms cancel: the estimate follows that cancellation
# (up to 2,200 eps of the value here), so only its honesty is checked
PCF_BEYOND_TURNING_REF = (
    (20.0, 7.5, "-2.56980388741204648936867808115e+8"),
    (35.0, 9.0, "3.44283027013221815779239564983e+19"),
    (45.0, 11.3, "-1.75549941167456140424434251707e+26"),
    (52.0, 7.0, "-6.75217181958356449192447557301e+31"),
    (60.0, 12.0, "8.93022663647595350226741304851e+39"),
    (60.0, 15.0, "5.49751462299409963534193362068e+40"),
)


@pytest.mark.parametrize("nu,z,ref", PCF_BEYOND_TURNING_REF)
def test_pcf_beyond_the_turning_point_within_its_estimate(nu, z, ref):
    r = sf.pcf_d(nu, z)
    assert abs(Fraction(r.value) - Fraction(ref)) <= Fraction(r.est_abs_error)


# (nu, z, D_nu(z)) for z < 0 on the Kummer route, 30 digits from 50-digit
# mpmath; the estimate left out the rounding of z^2 in exp's argument
# and missed each of these by 1.4 to 2.0 times
PCF_KUMMER_NEG_REF = (
    (-16.144, -19.999, "2.24381648996736508995558176429e+51"),
    (-18.765, -18.373, "1.52039010548802934556117326825e+44"),
    (-26.994, -17.766, "9.3138096207017802879628362714e+40"),
    (-29.741, -17.891, "1.22510093685249368992648463919e+41"),
    (-22.243, -16.957, "1.01231166605807309282964727024e+38"),
    (-28.017, -16.427, "9.90125741556033404332064771162e+34"),
    (-8.767, -16.985, "8.39192598894275013761257901305e+36"),
    (-18.815, -18.311, "8.1505857567974525465036756249e+43"),
    (-23.822, -18.465, "2.81177793682636297701916852979e+44"),
    (-11.116, -18.28, "6.69811526369879851782947652343e+42"),
    (29.348, -18.879, "8.40512227470238090831937741896e+31"),
)


@pytest.mark.parametrize("nu,z,ref", PCF_KUMMER_NEG_REF)
def test_pcf_kummer_estimate_holds_for_negative_z(nu, z, ref):
    r = sf.pcf_d(nu, z)
    assert abs(Fraction(r.value) - Fraction(ref)) <= Fraction(r.est_abs_error)


def test_pcf_three_term_recurrence_grid():
    # D_{nu+1}(z) - z D_nu(z) + nu D_{nu-1}(z) = 0, mixed 1e-9 abs / 1e-8 rel
    nu = -5.0
    while nu <= 8.0 + 1e-9:
        z = -6.0
        while z <= 6.0 + 1e-9:
            d0 = sf.pcf_d(nu, z).value
            dp = sf.pcf_d(nu + 1.0, z).value
            dm = sf.pcf_d(nu - 1.0, z).value
            res = abs(dp - z * d0 + nu * dm)
            scale = max(abs(dp), abs(z * d0), abs(nu * dm), 1e-300)
            assert res <= 1e-9 or res / scale <= 1e-8, (nu, z, res, res / scale)
            z += 0.5
        nu += 0.5


def test_pcf_integer_order_hermite_reduction():
    # D_n(z) = 2^(-n/2) e^(-z^2/4) H_n(z / sqrt 2) for n <= 10, |z| <= 6
    for n in range(11):
        z = -6.0
        while z <= 6.0 + 1e-9:
            href = 2.0 ** (-n / 2.0) * math.exp(-z * z / 4.0) * sf.hermite_h(n, z / math.sqrt(2.0))
            if href != 0.0:
                assert sf.pcf_d(float(n), z).value == pytest.approx(href, rel=1e-9)
            z += 0.37


def _hermite_he(n_max, z):
    """He_0(z) .. He_{n_max}(z) exactly, for a Fraction z, from
    He_{n+1} = z He_n - n He_{n-1}."""
    he = [Fraction(1), z]
    for n in range(1, n_max):
        he.append(z * he[n] - n * he[n - 1])
    return he


def test_pcf_integer_orders_match_the_exact_hermite_form():
    # D_n(z) = e^(-z^2/4) He_n(z) for n = 0..20 at z = i/2, |z| <= 20: He_n
    # is exact, so the reference carries only the rounding of exp, which
    # 4 eps |ref| covers; pcf_d must lie within its own estimate of it
    for i in range(-40, 41):
        z = i / 2
        gauss = Fraction(math.exp(-z * z / 4.0))
        for n, he in enumerate(_hermite_he(20, Fraction(z))):
            ref = gauss * he
            got = sf.pcf_d(float(n), z)
            bound = Fraction(got.est_abs_error) + 4 * Fraction(EPS) * abs(ref)
            assert abs(Fraction(got.value) - ref) <= bound, (n, z)


def test_pcf_domain_errors():
    with pytest.raises(sf.DomainError):
        sf.pcf_d(0.5, 31.0)
    # the documented domain is the enforced one: pcf_d itself rejects |z| > 20
    with pytest.raises(sf.DomainError, match="pcf_d restricted to"):
        sf.pcf_d(0.5, 20.5)
    with pytest.raises(sf.DomainError):
        sf.pcf_d(61.0, 1.0)
    # non-finite arguments fail at once in every Weber entry point
    bad = ((math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0), (1.0, -math.inf))
    for nu, z in bad:
        with pytest.raises(sf.DomainError, match="pcf_d arguments must be finite"):
            sf.pcf_d(nu, z)
        with pytest.raises(sf.DomainError, match="pcf_d_pair arguments must be finite"):
            sf.pcf_d_pair(nu, z)
        with pytest.raises(sf.DomainError, match="weber_even_odd arguments must be finite"):
            sf.weber_even_odd(nu, z)
    with pytest.raises(sf.DomainError, match="pcf_d_pair restricted to"):
        sf.pcf_d_pair(0.5, -20.5)
    with pytest.raises(sf.DomainError, match="gamma argument must be finite"):
        sf.gamma(-math.inf)


def test_weber_basis_wronskian_and_reduction():
    # E O' - E' O = 1; D rebuilt from the basis matches pcf_d
    for nu, z in ((0.7, 1.3), (-2.2, -3.0), (4.5, 0.4), (3.1, 2.6)):
        e, ep, o, op, _ = sf.weber_even_odd(nu, z)
        assert e * op - ep * o == pytest.approx(1.0, rel=1e-11)
        d = 2.0 ** (nu / 2.0) * math.sqrt(math.pi) * (
            sf.rgamma((1.0 - nu) / 2.0) * e - math.sqrt(2.0) * sf.rgamma(-nu / 2.0) * o)
        assert d == pytest.approx(sf.pcf_d(nu, z).value, rel=1e-11)


# ----------------------------------------------------------------------
# Airy
# ----------------------------------------------------------------------


def test_airy_origin_values():
    ai = sf.airy_ai(0.0)
    aip = sf.airy_ai_prime(0.0)
    assert ai.value == pytest.approx(0.3550280538878172, rel=1e-14)
    assert aip.value == pytest.approx(-0.2588194037928068, rel=1e-14)


@pytest.mark.parametrize("x,ai,aip,bi,bip", AIRY_REF)
def test_airy_reference_and_error_bound(x, ai, aip, bi, bip):
    got = sf.airy_all(x)
    for g, ref in zip(got, (ai, aip, bi, bip)):
        assert abs(g.value - ref) <= max(g.est_abs_error, 8.0 * EPS * abs(ref)), (x, ref)
    # absolute target on [-15, 15] for the decaying pair
    if abs(x) <= 15.0:
        assert abs(got[0].value - ai) <= 1e-9
        assert abs(got[1].value - aip) <= 1e-9


@pytest.mark.parametrize("x,ai,aip,bi,bip", AIRY_K_REF)
def test_airy_k_window_within_its_estimate(x, ai, aip, bi, bip):
    # exact rational comparison: the references carry 30 digits
    for got, ref in zip(sf.airy_all(x), (ai, aip, bi, bip)):
        assert abs(Fraction(got.value) - Fraction(ref)) <= Fraction(got.est_abs_error), (x, ref)
        assert got.est_abs_error <= 50.0 * EPS * abs(got.value), (x, ref)


# (x, Ai, Ai', Bi, Bi') on (7, 25], where Ai and Ai' come from the
# K-integrals at a step that shrinks with zeta and Bi and Bi' from the
# Maclaurin series, 30 digits from 50-digit mpmath (offline)
AIRY_POS_REF = (
    (7.25, "3.81156301833737761079749256258e-7", "-1.03904629462802573522830746136e-6",
     "1.55141432627503097583959884409e+5", "4.12195088243438151188321285184e+5"),
    (8.0, "4.69220761609923162564908170349e-8", "-1.34143929790678657429115370793e-7",
     "1.1995860041244599308816544996e+6", "3.35434231274453887650774649653e+6"),
    (9.7, "2.85371593149310641670717444381e-10", "-8.95994584899317523556373239858e-10",
     "1.79101064677735138054945665223e+8", "5.53090447234021877304716255621e+8"),
    (10.5, "2.20227451928340164353030439636e-11", "-7.18769678145156709133785297834e-11",
     "2.2305544411366952291506515527e+9", "7.17369224528329918014360087229e+9"),
    (12.0, "1.3931846888753608390490345032e-13", "-4.8547365549853084629936539977e-13",
     "3.29807225829074176184768111824e+11", "1.13550750244337074240432409046e+12"),
    (14.25, "3.85982355834015300679213155625e-17", "-1.46374648858816640646694087779e-16",
     "1.09236738943057766937666787403e+15", "4.1042029703345077929306949993e+15"),
    (16.0, "4.15688882891702439474793761918e-20", "-1.66918867683818095591593412815e-19",
     "9.5721239060491865258438081149e+17", "3.81374350712186265587714471244e+18"),
    (18.5, "1.24373376697194045746786640574e-24", "-5.36617882341472770938368389722e-24",
     "2.9752095911107223181334844633e+22", "1.27563328556779909374572867042e+23"),
    (20.0, "1.69167286867054031355356021251e-27", "-7.58639162574835496051537170591e-27",
     "2.1037650496511038144947890144e+25", "9.38183933613396434910621694547e+25"),
    (22.75, "4.93973553110259112801226712084e-33", "-2.36150112211594589314901006012e-32",
     "6.75509557746116242532921255552e+30", "3.2145086983350664955942303658e+31"),
    (25.0, "8.11602682469138668375834329641e-38", "-4.06608933724328100532261429822e-37",
     "3.92203077804138177380385011216e+35", "1.95707350832333089701326683187e+36"),
)


@pytest.mark.parametrize("x,ai,aip,bi,bip", AIRY_POS_REF)
def test_airy_beyond_seven_within_tens_of_ulps(x, ai, aip, bi, bip):
    for got, ref, ulps in zip(sf.airy_all(x), (ai, aip, bi, bip), (100, 100, 50, 50)):
        err = abs(Fraction(got.value) - Fraction(ref))
        assert err <= Fraction(got.est_abs_error), (x, ref)
        assert err <= ulps * Fraction(EPS) * abs(Fraction(ref)), (x, ref)


@pytest.mark.parametrize("cut", [4.0, 7.0])
def test_airy_continuous_across_the_k_window_cuts(cut):
    # the last double of one route and the first of the next agree within
    # their summed estimates plus the slope times the spacing
    above = math.nextafter(cut, math.inf)
    lo, hi = sf.airy_all(cut), sf.airy_all(above)
    ai, aip, bi, bip = (r.value for r in hi)
    for a, b, slope in zip(lo, hi, (aip, above * ai, bip, above * bi)):
        gap = abs(a.value - b.value)
        assert gap <= a.est_abs_error + b.est_abs_error + abs(slope) * (above - cut), (cut, gap)


def test_airy_wronskian_constancy():
    # Ai Bi' - Ai' Bi = 1/pi within 1e-9 on [-12, 8]
    target = 1.0 / math.pi
    x = -12.0
    while x <= 8.0 + 1e-9:
        ai, aip, bi, bip = sf.airy_all(x)
        w = ai.value * bip.value - aip.value * bi.value
        assert abs(w - target) <= 1e-9, (x, w - target)
        x += 0.25


def test_airy_ode_residual():
    # second central difference at h = 1e-3: f'' ~ x f within 1e-5 on
    # [-10, 10].  The Bi branch exceeds 1e8 on the right where a plain
    # absolute bound is unrepresentable, so the bound is 1e-5 max(1, |f|)
    # (pure absolute wherever the function is O(1)).
    h = 1e-3
    x = -10.0
    while x <= 10.0 + 1e-9:
        for fn in (sf.airy_ai, sf.airy_bi):
            fm = fn(x - h).value
            f0 = fn(x).value
            fp = fn(x + h).value
            second = (fp - 2.0 * f0 + fm) / (h * h)
            assert abs(second - x * f0) <= 1e-5 * max(1.0, abs(f0)), (x, fn.__name__)
        x += 0.5


def test_airy_domain_error():
    with pytest.raises(sf.DomainError):
        sf.airy_ai(25.5)
    with pytest.raises(sf.DomainError):
        sf.airy_bi(-26.0)


# ----------------------------------------------------------------------
# Hermite
# ----------------------------------------------------------------------


def test_hermite_basics():
    assert sf.hermite_h(0, 3.7) == 1.0
    assert sf.hermite_h(3, 2.0) == 40.0
    # direct polynomial expansion: H_5(x) = 32 x^5 - 160 x^3 + 120 x
    x = 0.3
    assert sf.hermite_h(5, x) == pytest.approx(32 * x ** 5 - 160 * x ** 3 + 120 * x, rel=1e-13)


def test_hermite_combinatorial_formula():
    # H_n(x) = n! sum_m (-1)^m (2x)^(n-2m) / (m! (n-2m)!)
    for n in (4, 7, 10, 13):
        for x in (-1.3, 0.7, 2.1):
            ref = sum((-1) ** m * math.factorial(n)
                      / (math.factorial(m) * math.factorial(n - 2 * m))
                      * (2.0 * x) ** (n - 2 * m)
                      for m in range(n // 2 + 1))
            assert sf.hermite_h(n, x) == pytest.approx(ref, rel=1e-12)


def test_hermite_large_order_runs():
    # orders up to 2000 are accepted; raw H_n values exceed double range
    # well before that, so only require the recurrence to run
    v = sf.hermite_h(2000, 0.25)
    assert isinstance(v, float)
    assert math.isfinite(sf.hermite_h(120, 0.5))


def test_hermite_validation():
    with pytest.raises(ValueError):
        sf.hermite_h(-1, 0.0)
    with pytest.raises(ValueError):
        sf.hermite_h(2001, 0.0)
    for x in (math.nan, math.inf, -math.inf):
        with pytest.raises(sf.DomainError, match="hermite_h argument must be finite"):
            sf.hermite_h(3, x)


# ----------------------------------------------------------------------
# The tightened kernels keep every bit
# ----------------------------------------------------------------------
#
# Verbatim copies of the plain loops the kernels replace.  The kernels
# must do the same floating-point operations in the same order, so they
# are compared by float.hex, value and error estimate alike.


def ref_kummer_m(a, b, z):
    term = 1.0
    total = 1.0
    comp = 0.0  # Kahan compensation
    abs_sum = 1.0
    small_streak = 0
    n = 0
    while n < 10000:
        term *= (a + n) * z / ((b + n) * (n + 1.0))
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        abs_sum += abs(term)
        n += 1
        if abs(term) <= EPS * abs(total):
            small_streak += 1
            if small_streak >= 2:
                break
        else:
            small_streak = 0
    else:
        raise sf.ConvergenceError
    est = 2.0 * abs(term) + 16.0 * EPS * abs_sum
    return sf.EvalResult(total, est)


def ref_gamma_lanczos(x):
    acc = sf._LANCZOS_C[0]
    for i in range(1, 15):
        acc += sf._LANCZOS_C[i] / (x - 1.0 + i)
    t = x + sf._LANCZOS_G - 0.5
    return sf._SQRT_2PI * t ** (x - 0.5) * math.exp(-t) * acc


def ref_rgamma(x):
    if x >= 0.5:
        return 1.0 / ref_gamma_lanczos(x)
    return ref_gamma_lanczos(1.0 - x) * sf._sinpi(x) / math.pi


def ref_pcf_series(nu, z):
    w = 0.5 * z * z
    m1 = ref_kummer_m(-0.5 * nu, 0.5, w)
    m2 = ref_kummer_m(0.5 * (1.0 - nu), 1.5, w)
    r1 = ref_rgamma(0.5 * (1.0 - nu))
    r2 = ref_rgamma(-0.5 * nu)
    pref = 2.0 ** (0.5 * nu) * math.exp(-0.25 * z * z) * sf._SQRT_PI
    t1 = r1 * m1.value
    t2 = math.sqrt(2.0) * z * r2 * m2.value
    value = pref * (t1 - t2)
    est = pref * (
        abs(r1) * m1.est_abs_error
        + math.sqrt(2.0) * abs(z) * abs(r2) * m2.est_abs_error
        + (16.0 + 0.5 * z * z) * EPS * (abs(t1) + abs(t2))
    )
    return sf.EvalResult(value, est)


def ref_airy_series(x):
    x3 = x * x * x
    tf = 1.0
    tg = x
    f, g = tf, tg
    fp, gp = 0.0, 1.0
    sf_, sg = 1.0, abs(x)
    for k in range(1, 80):
        tf = tf * x3 / ((3.0 * k) * (3.0 * k - 1.0))
        tg = tg * x3 / ((3.0 * k) * (3.0 * k + 1.0))
        f += tf
        g += tg
        fp += tf * (3.0 * k) / x
        gp += tg * (3.0 * k + 1.0) / x
        sf_ += abs(tf)
        sg += abs(tg)
        if abs(tf) < EPS * 0.01 * sf_ and abs(tg) < EPS * 0.01 * max(sg, 1.0):
            break
    return f, g, fp, gp, sf_, sg


def ref_airy_asym_neg(x):
    t = -x
    zeta = 2.0 / 3.0 * t ** 1.5
    q = t ** 0.25
    theta = zeta - 0.25 * math.pi
    c, s = math.cos(theta), math.sin(theta)
    pu = qu = pv = qv = 0.0
    prev = math.inf
    trunc = 0.0
    zp = 1.0  # zeta^-k
    for k in range(len(sf._ASYM_U)):
        tu = sf._ASYM_U[k] * zp
        if abs(tu) >= prev:
            trunc = abs(tu)
            break
        sign = -1.0 if (k // 2) & 1 else 1.0
        if k % 2 == 0:
            pu += sign * tu
            pv += sign * sf._ASYM_V[k] * zp
        else:
            qu += sign * tu
            qv += sign * sf._ASYM_V[k] * zp
        prev = abs(tu)
        trunc = abs(tu)
        zp /= zeta
        if abs(tu) < 1e-18:
            break
    ai = (c * pu + s * qu) / (sf._SQRT_PI * q)
    bi = (-s * pu + c * qu) / (sf._SQRT_PI * q)
    aip = q / sf._SQRT_PI * (s * pv - c * qv)
    bip = q / sf._SQRT_PI * (c * pv + s * qv)
    rel = 2.0 * trunc + (4.0 + 2.0 * zeta) * EPS
    return (ai, aip, bi, bip, rel)


def bits(r):
    """float.hex of a value and its estimate, or of every float in a tuple."""
    if isinstance(r, sf.EvalResult):
        return (r.value.hex(), r.est_abs_error.hex())
    if isinstance(r, tuple):
        return tuple(bits(v) for v in r)
    return float(r).hex()


def grid(lo, hi, n):
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def test_kummer_series_keeps_every_bit():
    # z of both signs up to the domain edge, the b = 1/2, 3/2, 5/2 of the
    # Weber functions, b just off the poles at 0 and -2, integer a
    # (terminating series) and fractional a
    zs = grid(-200.0, 200.0, 161) + grid(-3.0, 3.0, 61) + [1e-300, -1e-12]
    bs = (0.5, 1.5, 2.5, 1.0, 0.37, 1e-9, -1e-6, -2.0 + 3e-12, -1.9999, 7.25)
    as_ = (-7.0, -3.5, -0.5, 0.0, 0.31, 1.0, 2.25, -12.8, 9.6)
    checked = 0
    for a in as_:
        for b in bs:
            for z in zs:
                try:
                    want = ref_kummer_m(a, b, z)
                except sf.ConvergenceError:
                    with pytest.raises(sf.ConvergenceError):
                        sf.kummer_m(a, b, z)
                    continue
                assert bits(sf.kummer_m(a, b, z)) == bits(want), (a, b, z)
                checked += 1
    assert checked > 0.9 * len(as_) * len(bs) * len(zs)


def test_lanczos_and_rgamma_keep_every_bit():
    xs = grid(0.5, 60.0, 2001) + [0.5 + 1e-15, 1.0, 2.0, 12.5]
    for x in xs:
        assert bits(sf._gamma_lanczos(x)) == bits(ref_gamma_lanczos(x)), x
    # both sides of the reflection cut, integer and half-integer x
    ys = grid(-59.5, 59.5, 4001) + [n + d for n in range(-59, 60) for d in (0.0, 0.5)]
    ys += [0.5 - 1e-16, -1e-300]
    for y in ys:
        assert bits(sf.rgamma(y)) == bits(ref_rgamma(y)), y


def test_airy_series_keeps_every_bit():
    # both sides of the K-integral cut (4) and of the series cut (7)
    xs = [x for x in grid(-8.0, 8.0, 3201) if x != 0.0]
    xs += [3.999, 4.0, 4.001, 6.999, 7.0, 7.001, -6.999, -7.0, -7.001, 1e-8, -1e-8]
    for x in xs:
        assert bits(sf._airy_series(x)) == bits(ref_airy_series(x)), x


def test_airy_asym_neg_keeps_every_bit():
    # from just past the series cut to the domain edge
    for x in grid(-25.0, -7.0, 3601) + [-7.000001, -24.999]:
        assert bits(sf._airy_asym_neg(x)) == bits(ref_airy_asym_neg(x)), x


NUS = (grid(-12.0, 12.0, 49) + [float(n) for n in range(-4, 13)]
       + [-7.3, -12.25, -31.7, -50.2, 0.999, 1e-9, 59.0])
ZS = grid(-9.0, 9.0, 73) + [0.0, -0.0, 12.7, -12.7, 20.0, -20.0]


def test_pcf_series_keeps_every_bit():
    # integer and half-integer orders included
    for nu in NUS:
        for z in ZS:
            assert bits(sf._pcf_series(nu, z)) == bits(ref_pcf_series(nu, z)), (nu, z)


def test_pcf_d_pair_equals_two_calls_on_every_route():
    routes = set()
    for nu in NUS:
        for z in ZS:
            routes.add((sf._pcf_takes_integral(nu, z), sf._pcf_takes_integral(nu, -z)))
            pair = sf.pcf_d_pair(nu, z)
            assert bits(pair) == bits((sf.pcf_d(nu, z), sf.pcf_d(nu, -z))), (nu, z)
    # series on both sides, and the integral on the positive side of either order
    assert routes == {(False, False), (True, False), (False, True)}


def test_pcf_d_pair_shares_the_kummer_pair(monkeypatch):
    calls = {"kummer_m": 0, "rgamma": 0}
    for name in calls:
        fn = getattr(sf, name)

        def counting(*args, _fn=fn, _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(sf, name, counting)
    sf.pcf_d_pair(0.7, 1.3)
    assert calls == {"kummer_m": 2, "rgamma": 2}
