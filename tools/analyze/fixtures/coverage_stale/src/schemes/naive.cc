struct Cycle { unsigned long v; };
struct Row { unsigned long v; };
struct RefreshAction { int n; };

struct Naive
{
    unsigned long acts = 0;
    void onActivate(Cycle cycle, Row row, RefreshAction &action);
};

void
Naive::onActivate(Cycle cycle, Row row, RefreshAction &action)
{
    (void)cycle;
    (void)row;
    (void)action;
    ++acts;
}
