/*
 * sc -- a spreadsheet calculator, after the SPEC92 benchmark: reads
 * cell definitions ("A1 = 5", "B2 = A1 * 2 + SUM(A1:A9)"), resolves
 * dependencies by iterating until values converge, detects circular
 * references, and prints the sheet.
 *
 * Symbolic category: formula parsing, dependency-driven reevaluation,
 * and a range-aggregation inner loop.
 *
 * Grid: columns A..H, rows 1..16.  Operators + - * /, integer
 * literals, cell references, SUM(range), MAX(range), parentheses.
 */

#define COLS 8
#define ROWS 16
#define CELLS (COLS * ROWS)
#define MAX_TEXT 4096
#define MAX_FORMULA 128

#define STATE_EMPTY    0
#define STATE_LITERAL  1
#define STATE_FORMULA  2

char formula_text[CELLS][MAX_FORMULA];
int cell_state[CELLS];
long cell_value[CELLS];
int cell_ready[CELLS];
int evaluation_passes;

char line_buf[MAX_TEXT];
int parse_pos;
char *parse_text;
int parse_failed;

void die(char *msg)
{
    puts(msg);
    exit(1);
}

int cell_index(int column, int row)
{
    return row * COLS + column;
}

/* Parse "B12" starting at parse_pos; returns cell index or -1. */
int parse_cell_reference(void)
{
    int column, row;
    char c = parse_text[parse_pos];
    if (c < 'A' || c >= 'A' + COLS)
        return -1;
    column = c - 'A';
    parse_pos++;
    if (!isdigit(parse_text[parse_pos]))
        return -1;
    row = 0;
    while (isdigit(parse_text[parse_pos])) {
        row = row * 10 + (parse_text[parse_pos] - '0');
        parse_pos++;
    }
    if (row < 1 || row > ROWS)
        return -1;
    return cell_index(column, row - 1);
}

void skip_blanks(void)
{
    while (parse_text[parse_pos] == ' ' || parse_text[parse_pos] == '\t')
        parse_pos++;
}

long parse_sum(void);

/* Aggregate a range like A1:A9 with the given function code. */
long parse_range_function(int which)
{
    int first, last, index;
    long accumulated;
    skip_blanks();
    if (parse_text[parse_pos] != '(') {
        parse_failed = 1;
        return 0;
    }
    parse_pos++;
    skip_blanks();
    first = parse_cell_reference();
    skip_blanks();
    if (first < 0 || parse_text[parse_pos] != ':') {
        parse_failed = 1;
        return 0;
    }
    parse_pos++;
    last = parse_cell_reference();
    skip_blanks();
    if (last < 0 || parse_text[parse_pos] != ')') {
        parse_failed = 1;
        return 0;
    }
    parse_pos++;
    {
        int col_a = first % COLS, row_a = first / COLS;
        int col_b = last % COLS, row_b = last / COLS;
        int col_lo = col_a < col_b ? col_a : col_b;
        int col_hi = col_a < col_b ? col_b : col_a;
        int row_lo = row_a < row_b ? row_a : row_b;
        int row_hi = row_a < row_b ? row_b : row_a;
        int column, row, started;
        accumulated = 0;
        started = 0;
        for (row = row_lo; row <= row_hi; row++) {
            for (column = col_lo; column <= col_hi; column++) {
                long value;
                index = cell_index(column, row);
                if (cell_state[index] == STATE_EMPTY) {
                    value = 0;
                } else if (!cell_ready[index]) {
                    parse_failed = 1;
                    value = 0;
                } else {
                    value = cell_value[index];
                }
                if (which == 0) {
                    accumulated += value;
                } else if (!started || value > accumulated) {
                    accumulated = value;
                    started = 1;
                }
            }
        }
    }
    return accumulated;
}

long parse_factor(void)
{
    long value;
    skip_blanks();
    if (parse_text[parse_pos] == '(') {
        parse_pos++;
        value = parse_sum();
        skip_blanks();
        if (parse_text[parse_pos] != ')') {
            parse_failed = 1;
            return 0;
        }
        parse_pos++;
        return value;
    }
    if (parse_text[parse_pos] == '-') {
        parse_pos++;
        return -parse_factor();
    }
    if (isdigit(parse_text[parse_pos])) {
        value = 0;
        while (isdigit(parse_text[parse_pos])) {
            value = value * 10 + (parse_text[parse_pos] - '0');
            parse_pos++;
        }
        return value;
    }
    if (strncmp(parse_text + parse_pos, "SUM", 3) == 0) {
        parse_pos += 3;
        return parse_range_function(0);
    }
    if (strncmp(parse_text + parse_pos, "MAX", 3) == 0) {
        parse_pos += 3;
        return parse_range_function(1);
    }
    {
        int reference = parse_cell_reference();
        if (reference < 0) {
            parse_failed = 1;
            return 0;
        }
        if (cell_state[reference] == STATE_EMPTY)
            return 0; /* Empty cells read as zero, like real sc. */
        if (!cell_ready[reference])
            parse_failed = 1;
        return cell_value[reference];
    }
}

long parse_product(void)
{
    long value = parse_factor();
    for (;;) {
        skip_blanks();
        if (parse_text[parse_pos] == '*') {
            parse_pos++;
            value *= parse_factor();
        } else if (parse_text[parse_pos] == '/') {
            long divisor;
            parse_pos++;
            divisor = parse_factor();
            if (divisor == 0) {
                parse_failed = 1;
                return 0;
            }
            value /= divisor;
        } else if (parse_text[parse_pos] == '%') {
            long divisor;
            parse_pos++;
            divisor = parse_factor();
            if (divisor == 0) {
                parse_failed = 1;
                return 0;
            }
            value %= divisor;
        } else {
            return value;
        }
    }
}

long parse_sum(void)
{
    long value = parse_product();
    for (;;) {
        skip_blanks();
        if (parse_text[parse_pos] == '+') {
            parse_pos++;
            value += parse_product();
        } else if (parse_text[parse_pos] == '-') {
            parse_pos++;
            value -= parse_product();
        } else {
            return value;
        }
    }
}

/* Try to evaluate one formula; returns 1 on success. */
int evaluate_cell(int index)
{
    long value;
    parse_text = formula_text[index];
    parse_pos = 0;
    parse_failed = 0;
    value = parse_sum();
    skip_blanks();
    if (parse_text[parse_pos] != 0)
        parse_failed = 1;
    if (parse_failed)
        return 0;
    cell_value[index] = value;
    cell_ready[index] = 1;
    return 1;
}

/* Iterate until no formula makes progress (dependency resolution). */
void evaluate_sheet(void)
{
    int progress = 1;
    evaluation_passes = 0;
    while (progress) {
        int index;
        progress = 0;
        evaluation_passes++;
        if (evaluation_passes > CELLS + 2)
            die("circular reference");
        for (index = 0; index < CELLS; index++) {
            if (cell_state[index] == STATE_FORMULA &&
                !cell_ready[index]) {
                if (evaluate_cell(index))
                    progress = 1;
            }
        }
    }
}

void check_unresolved(void)
{
    int index;
    for (index = 0; index < CELLS; index++)
        if (cell_state[index] == STATE_FORMULA && !cell_ready[index])
            die("unresolved formula (circular reference?)");
}

void read_definitions(void)
{
    int length = 0;
    int c;
    for (;;) {
        c = getchar();
        if (c == -1 || c == '\n') {
            if (length > 0) {
                int target;
                line_buf[length] = 0;
                parse_text = line_buf;
                parse_pos = 0;
                skip_blanks();
                target = parse_cell_reference();
                if (target < 0)
                    die("bad cell name");
                skip_blanks();
                if (parse_text[parse_pos] != '=')
                    die("expected =");
                parse_pos++;
                skip_blanks();
                if (strlen(line_buf + parse_pos) >= MAX_FORMULA)
                    die("formula too long");
                strcpy(formula_text[target], line_buf + parse_pos);
                cell_state[target] = STATE_FORMULA;
                cell_ready[target] = 0;
                length = 0;
            }
            if (c == -1)
                return;
        } else if (length < MAX_TEXT - 1) {
            line_buf[length++] = (char)c;
        }
    }
}

long column_total(int column)
{
    int row;
    long total = 0;
    for (row = 0; row < ROWS; row++) {
        int index = cell_index(column, row);
        if (cell_ready[index])
            total += cell_value[index];
    }
    return total;
}

void print_sheet(void)
{
    int column, row, populated;
    populated = 0;
    for (row = 0; row < ROWS; row++) {
        int any = 0;
        for (column = 0; column < COLS; column++)
            if (cell_ready[cell_index(column, row)])
                any = 1;
        if (!any)
            continue;
        for (column = 0; column < COLS; column++) {
            int index = cell_index(column, row);
            if (cell_ready[index]) {
                printf("%c%d=%ld ", 'A' + column, row + 1,
                       cell_value[index]);
                populated++;
            }
        }
        printf("\n");
    }
    printf("cells=%d passes=%d\n", populated, evaluation_passes);
    for (column = 0; column < COLS; column++) {
        long total = column_total(column);
        if (total != 0)
            printf("col %c total %ld\n", 'A' + column, total);
    }
}

int main(void)
{
    read_definitions();
    evaluate_sheet();
    check_unresolved();
    print_sheet();
    return 0;
}
