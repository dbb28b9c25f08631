// Known-bad fixture: single-precision float for a physical quantity.

namespace fixture {

float
energyPerAct(float nanojoules)
{
    return nanojoules * 0.5f;
}

// A waived use must NOT fire:
double
widen(float sample) // analyze: allow(float-type)
{
    return sample;
}

} // namespace fixture
